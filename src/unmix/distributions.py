"""Probability kernels used by the mixing and unmixing models.

Diagonal Gaussians (log-density, reparametrized sampling), the Dirichlet
(log-density, and a reparametrized sample whose reverse pass applies the
pathwise Jacobian w.r.t. the concentration), and the Beta pdf/cdf machinery
behind that Jacobian.  Every log-density can sit inside a recorded loss:
the Gaussian's is one graph node with its own VJP, the Dirichlet's is
built from :mod:`unmix.diffcore` ops.  A diagonal Gaussian is a
``DiagGaussian`` pair of Tensors; a Dirichlet is given by its concentration
alone, one (..., P) Tensor whose entries stay at or above ``GAMMA_FLOOR``.

Sampling is routed through a noise source: any object with
``normal(shape)`` and ``dirichlet(conc)`` methods.  ``RngNoise`` draws live
from a numpy Generator; a test can pass a source that replays fixed draws.
Its Dirichlet draw is one Gamma draw per entry, normalized, and nothing
else but the clip onto [``SIMPLEX_EPS``, 1 - ``SIMPLEX_EPS``]: no draw is
redrawn, so near-vertex draws keep their Dir(gamma) weight, and the
pathwise VJP is the gradient of the very draw that was returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor, as_tensor, constant
from .errors import DegenerateSampleError, DomainError, NumericError, ShapeError

GAMMA_FLOOR = 1e-3
SIMPLEX_EPS = 1e-9

_LOG_2PI = float(np.log(2.0 * np.pi))

__all__ = [
    "GAMMA_FLOOR", "SIMPLEX_EPS", "DiagGaussian", "gaussian_logpdf",
    "gaussian_rsample", "std_normal_logpdf", "dirichlet_logpdf",
    "dirichlet_rsample", "RngNoise",
]


@dataclass
class DiagGaussian:
    """Mean and per-coordinate standard deviation (entries > 0)."""

    mean: Tensor
    scale: Tensor


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------- Gaussian

def _gaussian_node(x: Tensor, mean: Tensor, scale: Tensor) -> Tensor:
    """Sum over the last axis of log N(x; mean, scale) as one node.

    z = (x - mean) / scale is formed once; the value takes the operations
    of the chain ``z * z * (-0.5) - log(scale) - 0.5 log(2 pi)`` in that
    order, so it is bitwise that chain's.  The VJP of the sum's cotangent
    g gives -g z / scale for x, g z / scale for the mean and
    g (z^2 - 1) / scale for the scale, each reduced to its operand's
    shape and computed only for an operand that needs a gradient.
    """
    s = scale.data
    z = (x.data - mean.data) / s
    v = z * z
    v *= -0.5
    v -= np.log(s)
    v -= 0.5 * _LOG_2PI

    def vjp(g):
        g = np.expand_dims(g, -1)
        dx = dm = ds = None
        if x.requires_grad or mean.requires_grad:
            gz = z * g
            gz /= s
            if x.requires_grad:
                dx = -dc._unbroadcast(gz, x.shape)
            if mean.requires_grad:
                dm = dc._unbroadcast(gz, mean.shape)
        if scale.requires_grad:
            gs = z * z
            gs -= 1.0
            gs *= g
            gs /= s
            ds = dc._unbroadcast(gs, scale.shape)
        return dx, dm, ds
    return Tensor(v.sum(axis=-1), (x, mean, scale), vjp)


def gaussian_logpdf(x, d: DiagGaussian) -> Tensor:
    """Exact diagonal-Gaussian log-density, summed over the last axis, as
    one graph node (``_gaussian_node``)."""
    x, mean, scale = as_tensor(x), as_tensor(d.mean), as_tensor(d.scale)
    if x.shape[-1] != mean.shape[-1]:
        raise ShapeError(f"x has {x.shape[-1]} coords, mean has {mean.shape[-1]}")
    if np.any(scale.data <= 0.0):
        raise DomainError("Gaussian scale must be positive")
    return _gaussian_node(x, mean, scale)


def std_normal_logpdf(x) -> Tensor:
    """The standard-normal log-density, summed over the last axis: the
    Gaussian node at mean 0 and scale 1, bitwise ``x * x * (-0.5) -
    0.5 log(2 pi)`` summed."""
    return _gaussian_node(as_tensor(x), constant(0.0), constant(1.0))


def gaussian_rsample(d: DiagGaussian, noise) -> Tensor:
    """mean + scale * noise for externally drawn standard-normal noise."""
    mean, scale = as_tensor(d.mean), as_tensor(d.scale)
    nd = _data(noise)
    if nd.shape[-1] != mean.shape[-1]:
        raise ShapeError(f"noise has {nd.shape[-1]} coords, mean has {mean.shape[-1]}")
    return mean + scale * constant(nd)


# ---------------------------------------------------------------- Dirichlet

def _check_concentration(conc: np.ndarray):
    if np.any(conc < GAMMA_FLOOR * (1.0 - 1e-9)):
        raise DomainError(
            f"concentration below floor {GAMMA_FLOOR}: min {conc.min()}")


def dirichlet_logpdf(a, concentration) -> Tensor:
    """Dirichlet log-density with boundary clipping and renormalization.

    ``concentration``: (..., P), every entry at or above ``GAMMA_FLOOR``.
    ``a`` is clipped to [eps, 1 - eps] (eps = ``SIMPLEX_EPS``) and renormalized,
    so at a one-hot ``a`` the gradient in an off-label gamma_j, psi(sum gamma)
    - psi(gamma_j) + log(eps / (1 + (P - 2) eps)), vanishes where eps says.
    """
    conc = as_tensor(concentration)
    _check_concentration(conc.data)
    at = dc.clip(as_tensor(a), SIMPLEX_EPS, 1.0 - SIMPLEX_EPS)
    at = at / at.sum(axis=-1, keepdims=True)
    norm = dc.lgamma(conc.sum(axis=-1)) - dc.lgamma(conc).sum(axis=-1)
    return ((conc - 1.0) * dc.log(at)).sum(axis=-1) + norm


def _sample_dirichlet_data(conc: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """A Dir(conc) draw per row by the module's single-draw rule, clipped
    and renormalized; a row whose Gamma draws all underflow is uniform."""
    g = rng.standard_gamma(conc)
    s = g.sum(axis=-1, keepdims=True)
    s[s <= 0.0] = 1.0
    a = np.clip(g / s, SIMPLEX_EPS, 1.0 - SIMPLEX_EPS)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def _beta_pdf_data(x, a, b):
    from scipy.special import betaln
    return np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
                  - betaln(a, b))


def _beta_cdf_data(x, a, b):
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) cdf at x."""
    from scipy.special import betainc
    out = betainc(a, b, x)
    if not np.all(np.isfinite(out)):
        raise NumericError("Beta cdf is not finite")
    return out


def _beta_cdf_dalpha_data(x, a, b):
    """d/da of the Beta cdf by central difference with step 1e-4*max(1,a)."""
    h = 1e-4 * np.maximum(1.0, np.asarray(a, dtype=np.float64))
    return (_beta_cdf_data(x, a + h, b) - _beta_cdf_data(x, a - h, b)) / (2.0 * h)


def _pathwise_jacobian_data(a: np.ndarray, conc: np.ndarray) -> np.ndarray:
    """Batched da_i/dgamma_j for samples a ~ Dir(conc); shape (..., P, P)."""
    a = np.asarray(a, dtype=np.float64)
    conc = np.broadcast_to(np.asarray(conc, dtype=np.float64), a.shape)
    if np.any(a >= 1.0):
        raise DegenerateSampleError("sampled abundance hit 1; Jacobian undefined")
    total = conc.sum(axis=-1, keepdims=True)
    beta = total - conc
    dF = _beta_cdf_dalpha_data(a, conc, beta)
    pdf = _beta_pdf_data(a, conc, beta)
    # column scale: -(dF/da pdf) / (1 - a_j), shared by every row i
    col = -dF / pdf / (1.0 - a)
    eye = np.eye(a.shape[-1])
    delta_minus_a = eye - a[..., :, None]          # (..., i, j) = delta_ij - a_i
    return delta_minus_a * col[..., None, :]


def dirichlet_rsample(concentration: Tensor, noise) -> Tensor:
    """Sample a ~ Dir(concentration) as a graph node.

    The forward draw comes from the noise source; the reverse pass applies
    the Beta-marginal pathwise derivative of the sample w.r.t. the
    concentration parameters.
    """
    conc = as_tensor(concentration)
    _check_concentration(conc.data)
    a = noise.dirichlet(conc.data)

    def vjp(g):
        jac = _pathwise_jacobian_data(a, conc.data)
        return (np.einsum("...i,...ij->...j", g, jac),)
    return Tensor(a, (conc,), vjp)


# ---------------------------------------------------------------- noise

class RngNoise:
    """Live sampling from a numpy Generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def normal(self, shape) -> np.ndarray:
        return self.rng.standard_normal(shape)

    def dirichlet(self, conc: np.ndarray) -> np.ndarray:
        return _sample_dirichlet_data(conc, self.rng)

