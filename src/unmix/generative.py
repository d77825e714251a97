"""The data-generating model: endmember decoders, priors, and the mixing law.

Pixels follow  y = a M + nonlinear(M, a) + e  with diagonal Gaussian noise,
abundances carry a flat Dirichlet prior, and each endmember is decoded
from a low-dimensional latent code by its own network with a learned
isotropic spread.  An endmember matrix M is endmember-major, (..., P, L),
each row one endmember's L contiguous bands.  The P decoders are one
bank, a ``dc.MlpParams`` whose weights are (P, out, in), and the P spreads
one (P,) log-scale.  Decoder quantities put the endmember axis first,
codes (P, ..., H) and means (P, ..., L), and it is the only batch axis
that reaches ``matmul``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import MlpParams, Tensor, as_tensor, mlp_forward
from .distributions import DiagGaussian, gaussian_logpdf

# Initial spreads; positive scalars live as logs.  The observation scale
# matches a ~30 dB noise floor at unit signal.  The endmember scale must
# start well above the noise floor: the decoder-likelihood terms scale
# like 1/scale^2 and otherwise dominate the objective for most of the
# epoch budget before the learned scale can catch up.
INIT_OBS_SCALE = 0.01
INIT_EM_SCALE = 0.05


def decoder_widths(n_bands: int, latent_dim: int) -> list[int]:
    """Width sequence of each endmember decoder, input through output."""
    L, H = n_bands, latent_dim
    return [H,
            max(int(np.ceil(L / 10)), H + 1),
            max(int(np.ceil(L / 4)), H + 2) + 3,
            int(np.ceil(1.2 * L)) + 5,
            L]


@dataclass
class GenerativeParams:
    """Parameters of the mixing model (decoder bank, spreads, nonlinear net),
    in fields whose order is the arena's and the checkpoint's array order."""

    em_decoder: MlpParams       # a bank of P decoders
    em_log_scale: Tensor        # (P,)
    nlin_mixing: MlpParams
    obs_log_scale: Tensor

    @property
    def n_endmembers(self) -> int:
        return self.em_decoder.bank

    @property
    def n_bands(self) -> int:
        return self.em_decoder.widths[-1]

    @classmethod
    def create(cls, n_bands: int, n_endmembers: int, latent_dim: int,
               rng) -> "GenerativeParams":
        """Drawn from the Generator ``rng``, or built over the arrays of a
        ``dc.StoredParams``."""
        values = dc.param_values(rng)
        widths = decoder_widths(n_bands, latent_dim)
        acts = ["relu"] * (len(widths) - 2) + ["sigmoid"]
        decoder = MlpParams.create(widths, acts, values, "gen.em_decoder",
                                   bank=n_endmembers)
        log_scale = values.value("gen.em_log_scale",
                                 np.full(n_endmembers, np.log(INIT_EM_SCALE)))
        L, P = n_bands, n_endmembers
        mix_widths = [P * (L + 1), P * L, L, L, L]
        mix_acts = ["relu"] * 3 + ["linear"]
        nlin = MlpParams.create(mix_widths, mix_acts, values, "gen.nlin_mixing")
        obs = values.value("gen.obs_log_scale", np.log(INIT_OBS_SCALE))
        return cls(decoder, log_scale, nlin, obs)

    def em_scale(self) -> Tensor:
        """Isotropic band spreads of the P endmembers, (P,): one scalar per
        endmember for every band."""
        return dc.exp(self.em_log_scale)

    def obs_scale(self) -> Tensor:
        """Isotropic observation-noise spread, a scalar for every band."""
        return dc.exp(self.obs_log_scale)


def em_decode(Z, theta: GenerativeParams) -> DiagGaussian:
    """Conditionals of the P endmembers given their latent codes.

    ``Z``: (P, ..., H), code k for endmember k.  The means (P, ..., L) come
    from the decoder bank (sigmoid keeps them inside the reflectance box);
    the spreads are the endmembers' learned isotropic constants, shaped
    (P, 1, ..., 1) to broadcast over the rest.
    """
    mean = mlp_forward(theta.em_decoder, Z)
    scale = theta.em_scale().reshape(
        (theta.n_endmembers,) + (1,) * (mean.data.ndim - 1))
    return DiagGaussian(mean=mean, scale=scale)


def mixing_mean(a, M, theta: GenerativeParams) -> Tensor:
    """Linear mixture a M plus the learned nonlinear contribution.

    ``a``: (..., P) simplex vectors, ``M``: (..., P, L).  The nonlinear net
    sees M's P rows back to back followed by a.
    """
    a = as_tensor(a)
    M = as_tensor(M)
    batch, L, P = a.shape[:-1], theta.n_bands, theta.n_endmembers
    lin = dc.matmul(a.reshape(batch + (1, P)), M).reshape(batch + (L,))
    nlin = mlp_forward(theta.nlin_mixing,
                       dc.concat([M.reshape(batch + (P * L,)), a], axis=-1))
    return lin + nlin


def log_likelihood(y, a, M, theta: GenerativeParams) -> Tensor:
    """log p(y | a, M) under the Gaussian observation model."""
    mean = mixing_mean(a, M, theta)
    return gaussian_logpdf(y, DiagGaussian(mean=mean, scale=theta.obs_scale()))


def flat_abundance_logpdf(a, n_endmembers: int) -> Tensor:
    """log Dir(a; 1_P) = log Γ(P) for each row of ``a``, as a constant.

    The flat prior's gradient in ``a`` is zero everywhere, so it records no
    node.  The value is bitwise ``dirichlet_logpdf``'s at concentration 1.
    """
    from scipy.special import gammaln
    return dc.constant(np.full(as_tensor(a).shape[:-1],
                               gammaln(n_endmembers)))
