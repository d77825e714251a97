"""The variational unmixing model.

The approximate posterior factorizes as q(a | y, M) q(M | Z) q(Z | y):
abundances are disentangled from the latent codes (they see Z only through
M), and the endmember conditional q(M | Z) is the generative decoder bank
itself ("bottom-up" sharing), so its density ratio against p(M | Z)
vanishes.  The posterior's parameters, ``InferenceParams``, therefore hold
no decoder: q(M | Z) is read from theta, so the two cannot drift apart.

q(Z | y) is a diagonal Gaussian computed by a pair of nets with a shared
trunk; the same conditional serves every latent code.  A draw holds the P
codes as one (P, ..., H) tensor, which the generative decoder bank maps to
the P endmembers, endmember axis first, (P, ..., L); the endmember matrix
moves that axis once, to (..., P, L), the one layout of every endmember
matrix (``generative``).  q(a | y, M) is a Dirichlet whose concentration
is the ReLU of a two-stream sum: an unrolled least-squares/shrinkage
stream in (y, M) plus a free nonlinear stream in y.

Unmixing a scene (``point_estimate_blocks``) runs over constants, in fixed
blocks of ``ROW_BLOCK`` pixels counted from pixel 0, so a caller can stream
each block's outputs as it is computed, and the outputs depend only on the
pixel values, the pixel count and the BLAS thread count (for a trained
model every output can differ on 1 and 2 threads), not on memory layout.
It is the one place that computes in float32: its view of the model
(``forward_view``) runs the z-encoder's mean path, the decoder bank and
the mixing net, most of its products, in float32, and keeps LISTA, the
nonlinear encoder and every output in float64.  Its outputs stay within
about 1e-6 of the same pass in float64.  Training is float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import MlpParams, Tensor, as_tensor, mlp_forward
from .distributions import (GAMMA_FLOOR, DiagGaussian, dirichlet_rsample,
                            gaussian_rsample)
from .errors import DomainError, InputError, ShapeError
from .generative import GenerativeParams, em_decode, mixing_mean

INIT_ETA_SPARSE = 0.01
INIT_ETA_UNC = 10.0
INIT_ETA_STEP = 0.1

# Pixels per block of the forward-only unmixing pass.  BLAS rounds a product
# by its row count, so this sets the rounding of every ``unmix`` output.
# Of 256, 512 and 1024 on a 100x100x224 scene, 512 ran the pass fastest,
# though within the runs' spread.
ROW_BLOCK = 512

# The warm start's cut on G = M M^T's eigenvalues, as a share of the largest
# (a singular-value cut of 1e-6 on M^T).  eigh leaves a rank-deficient G's
# null eigenvalues near 1e-16 of the largest; a cut there keeps them and
# misses pinv by O(1), so this one sits well above that rounding floor.
WARM_START_CUT = 1e-12


def nlin_encoder_widths(n_bands: int, n_endmembers: int) -> list[int]:
    """L, 2L, L/2 and L/4 rounded half up, 4P, P."""
    L, P = n_bands, n_endmembers
    return [L, 2 * L, (L + 1) // 2, (L + 2) // 4, 4 * P, P]


@dataclass
class ListaParams:
    """Scalars of the unrolled stream, stored as logs of positive values.

    Of the stream's ``n_layers`` layers, the first is the least-squares warm
    start, the last the uncertainty scaling, and each of the n_layers - 2
    between them a shrinkage step with its own step size in
    ``log_eta_steps``; a stream of 1 or 2 layers has no step.  Field order
    is the arena's and the checkpoint's array order.
    """

    n_layers: int
    log_eta_steps: list[Tensor]
    log_eta_sparse: Tensor
    log_eta_unc: Tensor

    @classmethod
    def create(cls, n_layers: int, eta_step: float, values) -> "ListaParams":
        """Initial values from ``values``, a ``dc.param_values`` source."""
        steps = [values.value(f"inf.lista.log_eta{m}", np.log(eta_step))
                 for m in range(n_layers - 2)]
        return cls(n_layers, steps,
                   values.value("inf.lista.log_eta_sp", np.log(INIT_ETA_SPARSE)),
                   values.value("inf.lista.log_eta_unc", np.log(INIT_ETA_UNC)))


@dataclass
class InferenceParams:
    """Parameters of q(Z | y) and q(a | y, M).

    q(M | Z) has none of its own: it is theta's decoder bank, which every
    function that draws from the posterior takes as ``theta``.  Field
    order is the arena's and the checkpoint's array order, after theta's.
    """

    z_trunk: MlpParams
    z_mean_head: MlpParams
    z_scale_head: MlpParams
    lista: ListaParams
    nlin_encoder: MlpParams

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
               lista_layers: int, rng,
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
            gram = ref_endmembers @ ref_endmembers.T
            eta_step = 1.0 / float(np.linalg.eigvalsh(gram)[-1])
        lista = ListaParams.create(lista_layers, eta_step, values)
        nlin = MlpParams.create(nlin_encoder_widths(L, n_endmembers),
                                ["relu"] * 4 + ["linear"], values,
                                "inf.nlin_encoder")
        return cls(trunk, mean_head, scale_head, lista, nlin)


@dataclass
class PosteriorSample:
    """One ancestral draw (Z -> M -> a) with its abundance concentration."""

    a: Tensor                  # (..., P) simplex
    em_matrix: Tensor          # (..., P, L)
    gamma: Tensor              # (..., P) concentration of q(a | y, M)
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


def _least_squares_start(gram: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (..., P, 1) column pinv(G) b = pinv(M^T, rcond=1e-6) y per pixel,
    from the stream's own G = M M^T and b = M y: with G = V diag(w) V^T
    (``eigh``), V diag(1/w) V^T b, where an eigenvalue at or below
    ``WARM_START_CUT`` of the largest counts as zero."""
    w, v = np.linalg.eigh(gram)
    large = w > WARM_START_CUT * w[..., -1:]
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=large)
    return v @ (inv[..., None] * (np.swapaxes(v, -1, -2) @ b))


def lista_concentration(y, M, phi: InferenceParams) -> Tensor:
    """Unrolled gradient/shrinkage stream; the piecewise-linear half of gamma.

    Starts from the least-squares (pseudoinverse) solution, runs
    n_layers - 2 shrinkage steps h <- relu(h - eta (G h - b) - eta eta_sp),
    and scales by the uncertainty factor.  ``y``: (..., L); ``M``: (..., P, L).

    Everything uses the Gram form: G = M M^T (..., P, P) and b = M y are
    formed once per pass; the warm start is solved from them, and each
    layer costs a P x P product in place of two L x P ones.  h and b are
    (..., P, 1) columns, so G h is one ``matmul`` node, and one reshape at
    the end gives (..., P).  The reverse pass reaches M through G and b and
    the step scalars through every layer; the warm start and ``y`` are data.
    """
    M = as_tensor(M)
    y_arr = np.asarray(y, dtype=np.float64)
    if M.shape[-1] != y_arr.shape[-1]:
        raise ShapeError(f"M has {M.shape[-1]} bands, y has {y_arr.shape[-1]}")
    gram = dc.matmul(M, M.transpose())
    b = dc.matmul(M, dc.constant(y_arr[..., None]))
    h = dc.constant(_least_squares_start(gram.data, b.data))
    eta_sp = dc.exp(phi.lista.log_eta_sparse)
    for log_eta in phi.lista.log_eta_steps:
        eta = dc.exp(log_eta)
        grad = dc.matmul(gram, h) - b
        h = dc.relu(h - eta * grad - eta_sp * eta)
    return dc.exp(phi.lista.log_eta_unc) * h.reshape(h.shape[:-1])


def abundance_streams(y, M, phi: InferenceParams) -> tuple[Tensor, Tensor]:
    """The two concentration streams before their ReLU combination."""
    lin = lista_concentration(y, M, phi)
    nlin = mlp_forward(phi.nlin_encoder, y)
    return lin, nlin


def _combine_streams(lin: Tensor, nlin: Tensor) -> Tensor:
    return dc.relu(lin + nlin) + GAMMA_FLOOR


def abundance_concentration(y, M, phi: InferenceParams) -> Tensor:
    """gamma = relu(linear stream + nonlinear stream) + floor."""
    return _combine_streams(*abundance_streams(y, M, phi))


def posterior_sample(y, phi: InferenceParams, theta: GenerativeParams,
                     noise) -> PosteriorSample:
    """Ancestral reparametrized draw Z -> M -> a for pixel(s) y (..., L);
    the code noise is one (..., P, H) draw and the endmember noise one
    (P, ..., L) draw."""
    y_arr = np.asarray(y, dtype=np.float64)
    batch = y_arr.shape[:-1]
    P, H, L = phi.n_endmembers, phi.latent_dim, phi.n_bands
    z_dist = encode_z(y_arr, phi)
    xi_z = noise.normal(batch + (P, H))
    z = gaussian_rsample(z_dist, np.moveaxis(xi_z, -2, 0))      # (P, ..., H)
    m = gaussian_rsample(em_decode(z, theta), noise.normal((P,) + batch + (L,)))
    em = dc.moveaxis(m, 0, -2)                                   # (..., P, L)
    gamma = abundance_concentration(y_arr, em, phi)
    a = dirichlet_rsample(gamma, noise)
    return PosteriorSample(a=a, em_matrix=em, gamma=gamma, z_dist=z_dist, z=z)


def forward_view(theta: GenerativeParams, phi: InferenceParams,
                 ) -> tuple[GenerativeParams, InferenceParams]:
    """The constant view of (theta, phi) that the unmixing pass runs over.

    It is a ``dc.StoredParams`` build of the model in which the weights and
    biases of the z-encoder's mean path, the decoder bank and the mixing
    net are float32 copies, made here, and every other parameter is the
    model's own float64 array.  Every tensor is a constant, so nothing run
    over the view records a graph, for any model.  A weight beyond
    float32's range becomes an infinity here, without a warning; the
    pass's finiteness checks report what it does to the outputs.
    """
    narrow = model_parameters(phi.z_trunk, phi.z_mean_head,
                              theta.em_decoder, theta.nlin_mixing)
    with np.errstate(over="ignore"):
        stored = {name: t.data.astype(np.float32) if name in narrow
                  else t.data
                  for name, t in model_parameters(theta, phi).items()}
    return init_model(phi.n_bands, phi.n_endmembers, phi.latent_dim,
                      phi.lista.n_layers, dc.StoredParams(stored))


def point_estimate_blocks(y, phi: InferenceParams, theta: GenerativeParams):
    """The forward-only unmixing pass, one block of pixels at a time.

    ``y`` is an (N, L) row source: an array, or anything whose ``y[rows]``
    returns those rows as an array, such as the ``container.PayloadReader``
    of a cube on disk.  The pixels run in blocks of ``ROW_BLOCK`` rows
    counted from pixel 0, each read once and taken from the z-encoder to
    the reconstruction.  Each block yields (rows, a_hat (B, P),
    m_hat (B, P, L), lin (B, P), nlin (B, P), recon (B, L)), all float64:
    the point estimates, the two concentration streams they combine, and
    the ``mixing_mean`` of (a_hat, m_hat).  Nothing larger than a block is
    held.  BLAS rounding follows a product's row count and thread count,
    so the fixed blocks make every output a function of the pixel values,
    their number and the BLAS thread count alone, not of how ``y`` is
    stored; any of the six may change with the thread count.

    The pass runs over ``forward_view(theta, phi)``, so three networks run
    in float32: the z-encoder's mean path, the decoder bank and the mixing
    net, most of the pass's products.  The decoder means are widened to
    float64 before LISTA, whose Gram, warm start and steps stay float64, as
    do the nonlinear encoder, the Dirichlet mean, a M and every output.
    The nonlinear encoder stays float64 because the Dirichlet mean divides
    its stream by the concentrations' sum, which can be as small as
    P * ``GAMMA_FLOOR``: run in float32, its rounding moved a_hat by up to
    2.7e-5 on a fresh model.  As it is, against the same estimates in
    float64 the outputs of fresh and trained models differ by at most
    about 8e-7 in the abundances, 5e-7 in the endmembers, 8e-7 in the
    reconstruction and 1e-7 in eta_d
    (``tests/test_inference.py::TestFloat32Pass`` gates 1e-5 and 1e-6).

    float32 holds values up to about 3.4e38, so a cube or a weight that is
    finite in float64 can overflow it.  Each block's casts and products
    run with overflow warnings off, and each array the pass takes out of
    float32, the decoder means and the reconstruction, is checked by one
    float64 sum: a float64 sum of float32-range values cannot overflow, so
    it is finite exactly when they all are.  A failed check is a
    ``DomainError`` naming the array and the block.
    """
    theta, phi = forward_view(theta, phi)
    n = len(y)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n))
        y_blk = y[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            # encode_z's mean alone: the scale head's output is not used
            z_mean = mlp_forward(phi.z_mean_head,
                                 mlp_forward(phi.z_trunk, y_blk)).data
            codes = np.broadcast_to(z_mean, (phi.n_endmembers,) + z_mean.shape)
            means = mlp_forward(theta.em_decoder, codes).data
            _check_float32_range("the decoder means", means, start)
            m_blk = np.moveaxis(means, 0, -2).astype(np.float64, order="C")
            lin, nlin = abundance_streams(y_blk, m_blk, phi)
            conc = _combine_streams(lin, nlin).data
            a_blk = conc / conc.sum(axis=-1, keepdims=True)
            recon = mixing_mean(a_blk, m_blk, theta).data
            _check_float32_range("the reconstruction", recon, start)
        yield rows, a_blk, m_blk, lin.data, nlin.data, recon


def _check_float32_range(what: str, values: np.ndarray, start: int):
    if not np.isfinite(values.sum(dtype=np.float64)):
        raise DomainError(f"unmix: {what} left float32's range in the block "
                          f"from pixel {start}")


def point_estimates(y, phi: InferenceParams,
                    theta: GenerativeParams) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic summaries: Dirichlet-mean abundances and decoder-mean EMs.

    ``y``: (N, L) pixels.  Returns (a_hat (N, P), m_hat (N, P, L)), the
    ``point_estimate_blocks`` of every pixel collected: what ``cli unmix``
    writes, bit for bit, whatever the memory layout of ``y``.
    """
    y = np.asarray(y, dtype=np.float64)
    (n, L), P = y.shape, phi.n_endmembers
    a_hat, m_hat = np.empty((n, P)), np.empty((n, P, L))
    for rows, a_blk, m_blk, *_ in point_estimate_blocks(y, phi, theta):
        a_hat[rows], m_hat[rows] = a_blk, m_blk
    return a_hat, m_hat


def init_model(n_bands: int, n_endmembers: int, latent_dim: int,
               lista_layers: int, rng,
               ref_endmembers: np.ndarray | None = None,
               ) -> tuple[GenerativeParams, InferenceParams]:
    """Build a generative/inference pair; the posterior's q(M | Z) is the
    generative decoder bank, which only theta holds.

    ``rng`` is the Generator the initial weights are drawn from, or a
    ``dc.StoredParams`` whose checkpoint arrays become the parameters.
    ``ref_endmembers`` (P, L), which ``train`` takes as the labelled set's
    mean endmember matrix, starts each decoder at its reference and sets
    the LISTA step to 1 / the largest eigenvalue of their Gram.
    """
    for name, size in (("latent_dim", latent_dim),
                       ("lista_layers", lista_layers)):
        if size < 1:
            raise InputError(f"{name} must be >= 1, got {size}")
    theta = GenerativeParams.create(n_bands, n_endmembers, latent_dim, rng,
                                    ref_endmembers)
    phi = InferenceParams.create(n_bands, n_endmembers, latent_dim,
                                 lista_layers, rng, ref_endmembers)
    return theta, phi


def _tensors(value):
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _tensors(item)
    elif is_dataclass(value):
        yield from _tensors([getattr(value, f.name) for f in fields(value)])


def model_parameters(*holders) -> dict[str, Tensor]:
    """The tensors of the parameter dataclasses ``holders``, keyed by name:
    theta's then phi's for ``model_parameters(theta, phi)``.  One walk of
    the fields, in field order and into lists and nested dataclasses, sets
    the arena's and the checkpoint's array order; ints and strings such as
    ``widths`` are skipped."""
    return {t.name: t for t in _tensors(list(holders))}
