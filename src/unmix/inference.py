"""The variational unmixing model.

The approximate posterior factorizes as q(a | y, M) q(M | Z) q(Z | y):
abundances are disentangled from the latent codes (they see Z only through
M), and the endmember conditional q(M | Z) reuses the generative decoders
("bottom-up" sharing), so its density ratio against p(M | Z) vanishes.

q(Z | y) is a diagonal Gaussian computed by a pair of nets with a shared
trunk; the same conditional serves every latent code.  A draw holds the P
codes as one (P, ..., H) tensor, which the generative decoder bank maps to
the P endmember columns, endmember axis first; the endmember matrix built
from them keeps its columns last, (..., L, P).  q(a | y, M) is a
Dirichlet whose concentration is the ReLU of a two-stream sum: an unrolled
least-squares/shrinkage stream in (y, M) plus a free nonlinear stream in y.

Unmixing a scene (``point_estimate_blocks``) runs over constants, in fixed
blocks of ``ROW_BLOCK`` pixels counted from pixel 0, so its outputs depend
only on the pixel values and the pixel count, not on memory layout, and a
caller can stream each block's outputs to disk as it is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import MlpParams, Tensor, as_tensor, mlp_forward
from .distributions import (GAMMA_FLOOR, DiagGaussian, DirichletParams,
                            dirichlet_rsample, gaussian_rsample)
from .errors import InputError, ShapeError
from .generative import GenerativeParams, em_decode, mixing_mean

__all__ = ["ListaParams", "InferenceParams", "PosteriorSample", "encode_z",
           "lista_concentration", "abundance_streams", "abundance_concentration",
           "posterior_sample", "point_estimates", "point_estimate_blocks",
           "point_estimates_with_streams", "init_model"]

INIT_ETA_SPARSE = 0.01
INIT_ETA_UNC = 10.0
INIT_ETA_STEP = 0.1

# Pixels per block of the forward-only unmixing pass.
ROW_BLOCK = 512


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def nlin_encoder_widths(n_bands: int, n_endmembers: int) -> list[int]:
    L, P = n_bands, n_endmembers
    return [L, 2 * L, _round_half_up(L / 2), _round_half_up(L / 4), 4 * P, P]


@dataclass
class ListaParams:
    """Scalars of the unrolled stream, stored as logs of positive values.

    ``log_eta_steps`` holds n_layers - 1 step sizes; the recurrence consumes
    the first n_layers - 2 (the final layer is the uncertainty scaling).
    """

    log_eta_steps: list[Tensor]
    log_eta_sparse: Tensor
    log_eta_unc: Tensor

    @property
    def n_layers(self) -> int:
        return len(self.log_eta_steps) + 1

    @classmethod
    def create(cls, n_layers: int, eta_step: float, values) -> "ListaParams":
        """Initial values from ``values``, a ``dc.param_values`` source."""
        steps = [values.value(f"inf.lista.log_eta{m}", np.log(eta_step))
                 for m in range(n_layers - 1)]
        return cls(steps,
                   values.value("inf.lista.log_eta_sp", np.log(INIT_ETA_SPARSE)),
                   values.value("inf.lista.log_eta_unc", np.log(INIT_ETA_UNC)))

    def named_parameters(self) -> dict[str, Tensor]:
        out = {t.name: t for t in self.log_eta_steps}
        out[self.log_eta_sparse.name] = self.log_eta_sparse
        out[self.log_eta_unc.name] = self.log_eta_unc
        return out


@dataclass
class InferenceParams:
    """Posterior parameters; endmember decoders are references into theta."""

    z_trunk: MlpParams
    z_mean_head: MlpParams
    z_scale_head: MlpParams
    lista: ListaParams
    nlin_encoder: MlpParams
    em_decoder: MlpParams       # shared with the generative model
    em_log_scale: Tensor        # shared with the generative model

    @property
    def latent_dim(self) -> int:
        return self.z_mean_head.widths[-1]

    @property
    def n_endmembers(self) -> int:
        return self.nlin_encoder.widths[-1]

    @property
    def n_bands(self) -> int:
        return self.z_trunk.widths[0]

    @classmethod
    def create(cls, n_bands: int, n_endmembers: int, latent_dim: int,
               lista_layers: int, rng, theta: GenerativeParams,
               ref_endmembers: np.ndarray | None = None) -> "InferenceParams":
        """Drawn from the Generator ``rng``, or built over the arrays of a
        ``dc.StoredParams``."""
        values = dc.param_values(rng)
        L, H = n_bands, latent_dim
        trunk = MlpParams.create([L, 5 * H, 2 * H], ["relu", "relu"],
                                 values, "inf.z_trunk")
        mean_head = MlpParams.create([2 * H, H], ["linear"], values,
                                     "inf.z_mean_head")
        scale_head = MlpParams.create([2 * H, 2 * H, 2 * H, H],
                                      ["relu", "relu", "linear"],
                                      values, "inf.z_scale_head")
        eta_step = INIT_ETA_STEP
        if ref_endmembers is not None:
            gram = ref_endmembers.T @ ref_endmembers
            eta_step = 1.0 / float(np.linalg.eigvalsh(gram)[-1])
        lista = ListaParams.create(lista_layers, eta_step, values)
        nlin = MlpParams.create(nlin_encoder_widths(L, n_endmembers),
                                ["relu"] * 4 + ["linear"], values,
                                "inf.nlin_encoder")
        return cls(trunk, mean_head, scale_head, lista, nlin,
                   theta.em_decoder, theta.em_log_scale)

    def named_parameters(self) -> dict[str, Tensor]:
        """Parameters owned by the posterior (shared decoders excluded)."""
        out: dict[str, Tensor] = {}
        out.update(self.z_trunk.named_parameters())
        out.update(self.z_mean_head.named_parameters())
        out.update(self.z_scale_head.named_parameters())
        out.update(self.lista.named_parameters())
        out.update(self.nlin_encoder.named_parameters())
        return out


@dataclass
class PosteriorSample:
    """One ancestral draw (Z -> M -> a) with its abundance concentration."""

    a: Tensor                  # (..., P) simplex
    em_matrix: Tensor          # (..., L, P)
    gamma: DirichletParams
    z_dist: DiagGaussian
    z: Tensor                  # (P, ..., H), the P sampled codes


def encode_z(y, phi: InferenceParams) -> DiagGaussian:
    """Gaussian posterior over a latent code given the pixel.

    The same conditional applies to each of the P codes; with zero weights
    it collapses to a bias-determined Gaussian identical for every code.
    """
    t = mlp_forward(phi.z_trunk, y)
    mean = mlp_forward(phi.z_mean_head, t)
    scale = dc.exp(mlp_forward(phi.z_scale_head, t))
    return DiagGaussian(mean=mean, scale=scale)


def _least_squares_start(m_data: np.ndarray, y_arr: np.ndarray) -> np.ndarray:
    """pinv(M, rcond=1e-8) y for each pixel, from a thin SVD of M applied to y.

    V diag(1/s) U^T y with pinv's cut: singular values at or below 1e-8 of
    the largest count as zero.  Holds U (..., L, P) but never the (..., P, L)
    pseudoinverse.
    """
    u, s, vt = np.linalg.svd(m_data, full_matrices=False)
    large = s > 1e-8 * s.max(axis=-1, keepdims=True)
    coef = np.squeeze(np.swapaxes(u, -1, -2) @ y_arr[..., None], axis=-1)
    coef *= np.divide(1.0, s, out=np.zeros_like(s), where=large)
    return np.squeeze(np.swapaxes(vt, -1, -2) @ coef[..., None], axis=-1)


def lista_concentration(y, M, phi: InferenceParams) -> Tensor:
    """Unrolled gradient/shrinkage stream; the piecewise-linear half of gamma.

    Starts from the least-squares (pseudoinverse) solution, runs
    n_layers - 2 shrinkage steps h <- relu(h - eta (G h - b) - eta eta_sp),
    and scales by the uncertainty factor.  ``y``: (..., L); ``M``: (..., L, P).

    The steps use the Gram form: G = M^T M (..., P, P) and b = M^T y
    (..., P) are formed once per pass, so each layer costs a P x P product
    in place of two L x P ones.  The reverse pass reaches M through G and b
    and the step scalars through every layer; the warm start and ``y`` are
    treated as data.
    """
    M = as_tensor(M)
    y_arr = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    if M.shape[-2] != y_arr.shape[-1]:
        raise ShapeError(f"M has {M.shape[-2]} bands, y has {y_arr.shape[-1]}")
    h = dc.constant(_least_squares_start(M.data, y_arr))
    m_t = M.transpose()
    gram = dc.matmul(m_t, M)
    b = dc.matmul(m_t, dc.constant(y_arr[..., None])).reshape(h.shape)
    eta_sp = dc.exp(phi.lista.log_eta_sparse)
    for m in range(phi.lista.n_layers - 2):
        eta = dc.exp(phi.lista.log_eta_steps[m])
        grad = dc.matmul(gram, h.reshape(h.shape + (1,))).reshape(h.shape) - b
        h = dc.relu(h - eta * grad - eta_sp * eta)
    return dc.exp(phi.lista.log_eta_unc) * h


def abundance_streams(y, M, phi: InferenceParams) -> tuple[Tensor, Tensor]:
    """The two concentration streams before their ReLU combination."""
    lin = lista_concentration(y, M, phi)
    nlin = mlp_forward(phi.nlin_encoder, y)
    return lin, nlin


def _combine_streams(lin: Tensor, nlin: Tensor) -> DirichletParams:
    return DirichletParams(concentration=dc.relu(lin + nlin) + GAMMA_FLOOR)


def abundance_concentration(y, M, phi: InferenceParams) -> DirichletParams:
    """gamma = relu(linear stream + nonlinear stream) + floor."""
    return _combine_streams(*abundance_streams(y, M, phi))


def posterior_sample(y, phi: InferenceParams, theta: GenerativeParams,
                     noise) -> PosteriorSample:
    """Ancestral reparametrized draw Z -> M -> a for pixel(s) y (..., L);
    the code noise is one (..., P, H) draw and the endmember noise one
    (P, ..., L) draw."""
    y_arr = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    batch = y_arr.shape[:-1]
    P, H, L = phi.n_endmembers, phi.latent_dim, phi.n_bands
    z_dist = encode_z(y_arr, phi)
    xi_z = noise.normal(batch + (P, H))
    z = gaussian_rsample(z_dist, np.moveaxis(xi_z, -2, 0))      # (P, ..., H)
    m = gaussian_rsample(em_decode(z, theta), noise.normal((P,) + batch + (L,)))
    em = dc.moveaxis(m, 0, -1)                                   # (..., L, P)
    gamma = abundance_concentration(y_arr, em, phi)
    a = dirichlet_rsample(gamma.concentration, noise)
    return PosteriorSample(a=a, em_matrix=em, gamma=gamma, z_dist=z_dist, z=z)


def point_estimate_blocks(y, phi: InferenceParams, theta: GenerativeParams):
    """The forward-only unmixing pass, one block of pixels at a time.

    ``y`` is an (N, L) row source: an array, or anything whose ``y[rows]``
    returns those rows as an array, such as the ``container.PayloadReader``
    of a cube on disk.  The pixels run in blocks of ``ROW_BLOCK`` rows
    counted from pixel 0, each read once and taken from the z-encoder to
    the reconstruction.  Each block yields (rows, a_hat (B, P),
    m_hat (B, L, P), lin (B, P), nlin (B, P), recon (B, L)): the point
    estimates, the two concentration streams they combine, and the
    ``mixing_mean`` of (a_hat, m_hat).  Nothing larger than a block is
    held.  BLAS rounding follows a product's row count, so the fixed blocks
    make every output a function of the pixel values and their number
    alone, not of how ``y`` is stored.  The pass runs over a constant view
    of the model's arrays, so it records no graph for any model.
    """
    stored = {name: t.data for name, t in model_parameters(theta, phi).items()}
    theta, phi = init_model(phi.n_bands, phi.n_endmembers, phi.latent_dim,
                            phi.lista.n_layers, dc.StoredParams(stored))
    n = len(y)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n))
        y_blk = y[rows]
        # encode_z's mean alone: the scale head's output is not used
        z_mean = mlp_forward(phi.z_mean_head, mlp_forward(phi.z_trunk, y_blk))
        m_blk = dc.moveaxis(mlp_forward(theta.em_decoder, z_mean, shared=True),
                            0, -1).data
        lin, nlin = abundance_streams(y_blk, m_blk, phi)
        conc = _combine_streams(lin, nlin).concentration.data
        a_blk = conc / conc.sum(axis=-1, keepdims=True)
        recon = mixing_mean(a_blk, m_blk, theta).data
        yield rows, a_blk, m_blk, lin.data, nlin.data, recon


def point_estimates_with_streams(y, phi: InferenceParams,
                                 theta: GenerativeParams
                                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """``point_estimate_blocks`` of every pixel, collected.

    ``y``: (..., L).  Returns (a_hat (..., P), m_hat (..., L, P),
    lin (..., P), nlin (..., P), recon (..., L)), bitwise what the blocks
    hold whatever the memory layout of ``y``.
    """
    y_arr = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    batch = y_arr.shape[:-1]
    y_rows = y_arr.reshape(-1, y_arr.shape[-1])
    n, L, P = len(y_rows), theta.n_bands, phi.n_endmembers
    outs = (np.empty((n, P)), np.empty((n, L, P)), np.empty((n, P)),
            np.empty((n, P)), np.empty((n, L)))
    for rows, *blocks in point_estimate_blocks(y_rows, phi, theta):
        for out, block in zip(outs, blocks):
            out[rows] = block
    return tuple(out.reshape(batch + out.shape[1:]) for out in outs)


def point_estimates(y, phi: InferenceParams,
                    theta: GenerativeParams) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic summaries: Dirichlet-mean abundances and decoder-mean EMs.

    ``y``: (..., L).  Returns (a_hat (..., P), m_hat (..., L, P)), read from
    ``point_estimates_with_streams``: what ``cli unmix`` writes, bit for bit.
    """
    a_hat, m_hat, *_ = point_estimates_with_streams(y, phi, theta)
    return a_hat, m_hat


def init_model(n_bands: int, n_endmembers: int, latent_dim: int = 2,
               lista_layers: int = 11, rng=None,
               ref_endmembers: np.ndarray | None = None,
               ) -> tuple[GenerativeParams, InferenceParams]:
    """Build a generative/inference pair with shared endmember decoders.

    ``rng`` is the Generator the initial weights are drawn from, or a
    ``dc.StoredParams`` whose checkpoint arrays become the parameters.
    """
    for name, size in (("latent_dim", latent_dim),
                       ("lista_layers", lista_layers)):
        if size < 1:
            raise InputError(f"{name} must be >= 1, got {size}")
    if rng is None:
        rng = np.random.default_rng(0)
    theta = GenerativeParams.create(n_bands, n_endmembers, latent_dim, rng)
    phi = InferenceParams.create(n_bands, n_endmembers, latent_dim,
                                 lista_layers, rng, theta, ref_endmembers)
    return theta, phi


def model_parameters(theta: GenerativeParams,
                     phi: InferenceParams) -> dict[str, Tensor]:
    """All trainable tensors, shared decoders counted once."""
    params = theta.named_parameters()
    params.update(phi.named_parameters())
    return params
