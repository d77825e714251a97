"""Training objective and optimization loop.

The maximized objective combines, per batch:

* an unsupervised bound: Monte Carlo average of the integrand
  log p(y, a, M, Z) - log q(a, M, Z | y) over k_e ancestral posterior
  draws, where the q(M|Z)/p(M|Z) ratio vanishes identically because
  q(M|Z) is the generative decoder bank itself.  The k_e draws are rows
  of one posterior pass over the batch tiled k_e times;
* a supervised bound over labeled (y, a, M) triples: the same integrand,
  self-normalized importance-weighted over K latent draws, plus a
  posterior-likelihood regularizer weighted by (1 + beta), the whole
  block scaled by lambda;
* an L1/2 penalty on the Dirichlet concentrations (sparsity), taken on
  the concentrations the two bounds already built: the labeled pixels'
  at their observed endmembers and the unlabeled pixels' at each
  posterior draw;
* a norm penalty on the two nonlinear networks.

Every batch holds both parts, and ``train`` refuses an empty set of either.
Both bounds take the integrand's factors from one definition, ``_integrand``.

Training minimizes the negation with Adam under the decaying schedule and
stops early once the relative objective increase between epochs falls
below the tolerance.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import diffcore as dc
from .data import check_simplex
from .diffcore import Tensor, adam_step, backward, lr_schedule
from .distributions import (DiagGaussian, RngNoise, dirichlet_logpdf,
                            gaussian_logpdf, gaussian_rsample,
                            std_normal_logpdf)
from .errors import ContractError, InputError, NumericError, TrainingError
from .generative import (GenerativeParams, em_decode, flat_abundance_logpdf,
                         log_likelihood)
from .inference import (InferenceParams, abundance_concentration, encode_z,
                        init_model, model_parameters, posterior_sample)


@dataclass
class TrainConfig:
    """All objective and schedule hyperparameters.

    ``lam`` balances the supervised block, ``beta`` weights the posterior
    regularizer, ``tau`` the sparsity penalty, ``varsigma1``/``varsigma2``
    the nonlinear-network norms.  ``k`` is the importance-sample count,
    ``k_e`` the Monte Carlo sample count for plain expectations, drawn as
    k_e copies of the batch's rows in one posterior pass.
    """

    lam: float = 1.0
    beta: float = 0.1
    tau: float = 0.01
    varsigma1: float = 1.0
    varsigma2: float = 1.0
    k: int = 5
    k_e: int = 1
    batch_size: int = 16
    max_epochs: int = 30
    rel_stop_tol: float = 0.01

    def __post_init__(self):
        for name in ("lam", "beta", "tau", "varsigma1", "varsigma2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ContractError(f"{name} must be finite and nonnegative, "
                                    f"got {value}")
        if self.k < 1 or self.k_e < 1:
            raise ContractError("k and k_e must be positive integers")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ContractError("batch_size and max_epochs must be positive")

    def as_dict(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        return out


@dataclass
class LossBreakdown:
    """Per-batch objective pieces; ``node`` carries the differentiable total."""

    unsup: float
    sup_iw: float
    sup_posterior: float
    sparsity: float
    reg: float
    total: float
    node: Tensor | None = None


def _integrand(y, a, M, gamma: Tensor, z: Tensor, z_dist: DiagGaussian,
               theta: GenerativeParams, bound: str) -> tuple[Tensor, ...]:
    """The factors (log p(y | a, M), log p(a), log q(a | y, M), log p(z),
    log q(z | y)) of both bounds' integrand, the last two summed over the
    P codes of ``z`` (P, ..., H); q(M | Z) / p(M | Z) cancels exactly.  A
    non-finite factor is a ``TrainingError`` naming it and the ``bound``.
    """
    factors = {
        "likelihood": log_likelihood(y, a, M, theta),
        "abundance prior": flat_abundance_logpdf(a, theta.n_endmembers),
        "abundance posterior": dirichlet_logpdf(a, gamma),
        "latent prior": std_normal_logpdf(z).sum(axis=0),
        "latent posterior": gaussian_logpdf(z, z_dist).sum(axis=0),
    }
    for name, f in factors.items():
        if not np.isfinite(f.data).all():
            raise TrainingError(f"non-finite {name} term in the {bound} bound")
    return tuple(factors.values())


def unsup_term(y, theta: GenerativeParams, phi: InferenceParams, noise,
               k_e: int) -> tuple[Tensor, Tensor]:
    """Evidence bound for the unlabeled pixels ``y`` (B, L), summed over
    the batch.

    For each pixel, averages the integrand log p(y, a, M, Z) -
    log q(a, M, Z | y) over ``k_e`` ancestral draws.  The draws are rows:
    one ``posterior_sample`` of the batch tiled k_e times, draw d of pixel
    b at row d B + b.  Also returns the (k_e, B, P) abundance
    concentrations of the draws, for the sparsity penalty.
    """
    B = len(y)
    rows = np.tile(y, (k_e, 1))
    s = posterior_sample(rows, phi, theta, noise)
    ll, lp_a, lq_a, lp_z, lq_z = _integrand(rows, s.a, s.em_matrix, s.gamma,
                                            s.z, s.z_dist, theta,
                                            "unsupervised")
    term = ll + lp_a - lq_a + lp_z - lq_z                          # (k_e B,)
    return (term * (1.0 / k_e)).sum(), s.gamma.reshape((k_e, B, -1))


@dataclass
class ImportanceWeights:
    """Endmember-likelihood weights over latent draws, kept in log domain."""

    log_weights: Tensor     # (..., K)
    normalized: Tensor      # (..., K), sums to 1 over the last axis


def importance_weights(em_matrix: np.ndarray, z, theta: GenerativeParams
                       ) -> ImportanceWeights:
    """Self-normalized weights w_i = q(M | Z_i) for observed M over K draws.

    ``em_matrix``: (..., P, L) observed data; ``z``: the latent codes,
    (P, ..., K, H).  log w_i is the sum over endmembers of
    log N(m_k; decoder_k(z_ik), scale_k); gradients reach the decoders and
    flow back through ``z``, while ``em_matrix`` is treated as data.  A
    row whose K log-weights are all non-finite is a ``NumericError``.
    """
    m = dc.constant(np.moveaxis(em_matrix, -2, 0)[..., None, :])
    log_w = gaussian_logpdf(m, em_decode(z, theta)).sum(axis=0)   # (..., K)
    lost = np.argwhere(~np.isfinite(log_w.data).any(axis=-1))
    if len(lost):
        raise NumericError(f"importance weights underflowed in row "
                           f"{lost[0].tolist()}")
    norm = dc.exp(log_w - dc.logsumexp(log_w, axis=-1))
    return ImportanceWeights(log_weights=log_w, normalized=norm)


def sup_term(y, a, em_matrix, theta: GenerativeParams, phi: InferenceParams,
             noise, k: int) -> tuple[Tensor, Tensor, Tensor]:
    """Supervised bound pieces for the labeled triples (y (B, L), a (B, P),
    em_matrix (B, P, L)), summed over the batch.

    Returns ``(sup_iw, sup_posterior, concentration)``: the
    importance-weighted integrand over ``k`` latent draws, the
    posterior-likelihood regularizer (it enters the total with weight
    lambda * (1 + beta)), and the (B, P) abundance concentration at the
    observed endmembers, for the sparsity penalty.  At a one-hot label,
    sup_posterior pulls an off-label concentration toward a point set by
    ``SIMPLEX_EPS`` (``dirichlet_logpdf``): 0.0535 at 1e-9, P = 5, on-label 5.
    """
    check_simplex(a)
    B = len(y)
    P, H = phi.n_endmembers, phi.latent_dim

    z_dist = encode_z(y, phi)
    z_q = DiagGaussian(mean=z_dist.mean.reshape((B, 1, H)),
                       scale=z_dist.scale.reshape((B, 1, H)))
    xi = noise.normal((B, k, P, H))
    z = gaussian_rsample(z_q, np.moveaxis(xi, 2, 0))                  # (P, B, K, H)
    w = importance_weights(em_matrix, z, theta)                       # (B, K)

    gamma = abundance_concentration(y, dc.constant(em_matrix), phi)
    ll, lp_a, lq_a, lp_z, lq_z = _integrand(y, a, em_matrix, gamma, z, z_q,
                                            theta, "supervised")
    bracket = (ll + lp_a - lq_a).reshape((B, 1)) + lp_z - lq_z        # (B, K)
    sup_iw = (w.normalized * bracket).sum(axis=-1).sum()
    sup_posterior = (lq_a + w.log_weights.mean(axis=-1)).sum()
    return sup_iw, sup_posterior, gamma


def l_half_norm(x: Tensor) -> Tensor:
    """Sum of square roots over the last axis (entries must be nonnegative)."""
    return (dc.as_tensor(x) ** 0.5).sum(axis=-1)


def sparsity_penalty(gamma_u: Tensor, gamma_s: Tensor, tau: float) -> Tensor:
    """tau-weighted L1/2 norm of both parts' abundance concentrations.

    ``gamma_s``: the (B, P) concentration of the labeled pixels at their
    observed endmember matrices; ``gamma_u``: the (k_e, B, P)
    concentrations of the unlabeled pixels' k_e posterior draws, whose
    norms are averaged over the draws.
    """
    k_e = gamma_u.shape[0]
    return tau * (l_half_norm(gamma_s).sum()
                  + (l_half_norm(gamma_u) * (1.0 / k_e)).sum())


def fnn_norm(net) -> Tensor:
    """Network norm: sum over layers of ||W||_F + ||b||_2, summed from the
    first norm so that no constant 0 enters the graph."""
    norms = [dc.l2norm(t) for layer in zip(net.weights, net.biases)
             for t in layer]
    return sum(norms[1:], norms[0])


def network_norm_penalty(theta: GenerativeParams, phi: InferenceParams,
                         varsigma1: float, varsigma2: float) -> Tensor:
    return (varsigma1 * fnn_norm(theta.nlin_mixing)
            + varsigma2 * fnn_norm(phi.nlin_encoder))


def total_loss(batch_u, batch_s, theta: GenerativeParams, phi: InferenceParams,
               config: TrainConfig, noise) -> LossBreakdown:
    """Assemble the maximized objective on one batch of both parts.

    ``batch_u``: (B, L) unlabeled pixels; ``batch_s``: tuple (Y, A, M) of
    labeled arrays; both required and nonempty.  ``noise``: a noise
    source, such as ``RngNoise``.
    """
    unsup, gamma_u = unsup_term(batch_u, theta, phi, noise, config.k_e)
    y_s, a_s, em_s = batch_s
    sup_iw, sup_post, gamma_s = sup_term(y_s, a_s, em_s, theta, phi, noise,
                                         config.k)
    sparsity = sparsity_penalty(gamma_u, gamma_s, config.tau)
    reg = network_norm_penalty(theta, phi, config.varsigma1, config.varsigma2)
    node = (unsup + config.lam * (sup_iw + (1.0 + config.beta) * sup_post)
            - sparsity - reg)
    return LossBreakdown(unsup=unsup.item(), sup_iw=sup_iw.item(),
                         sup_posterior=sup_post.item(),
                         sparsity=sparsity.item(), reg=reg.item(),
                         total=node.item(), node=node)


# --------------------------------------------------------------- training

@dataclass
class EpochStats:
    """Epoch means of the loss pieces plus the learning rate used."""

    epoch: int
    unsup: float
    sup_iw: float
    sup_posterior: float
    sparsity: float
    reg: float
    total: float
    lr: float


# The history's columns, and between epoch and lr the LossBreakdown pieces
# that an epoch averages.
_HISTORY_COLUMNS = [f.name for f in fields(EpochStats)]
_LOSS_TERMS = _HISTORY_COLUMNS[1:-1]


def train(d_u: np.ndarray, d_s, config: TrainConfig, seed: int, *,
          latent_dim: int, lista_layers: int,
          theta: GenerativeParams | None = None,
          phi: InferenceParams | None = None,
          start_epoch: int = 0):
    """Fit (theta, phi) on unlabeled pixels d_u and the labeled triples d_s,
    the (Y, A, M) arrays of shapes (n, L), (n, P), (n, P, L), both
    nonempty and P >= 2, else an ``InputError``; every step takes a batch
    of each.

    Deterministic given ``seed``: initialization, batch order, and every
    sampled noise value flow from named substreams of one seed sequence.
    Returns ``(theta, phi, history)`` with per-epoch statistics.  The
    parameters of (theta, phi) are packed into the optimizer's arena, so
    their ``.data`` are views of it from then on.
    """
    d_u = np.asarray(d_u, dtype=np.float64)
    if d_u.ndim != 2 or not len(d_u):
        raise InputError("unlabeled data must be a nonempty (N, L) array")
    y_s, a_s, m_s = (np.asarray(x, np.float64) for x in d_s)
    if not len(y_s):
        raise InputError("labeled set must be nonempty")
    if a_s.shape[1] < 2:
        raise InputError(f"labeled set must have at least 2 endmembers, "
                         f"got {a_s.shape[1]}")
    ss = np.random.SeedSequence(seed)
    init_ss, order_ss, noise_ss = ss.spawn(3)
    if theta is None or phi is None:
        theta, phi = init_model(d_u.shape[1], a_s.shape[1], latent_dim,
                                lista_layers, np.random.default_rng(init_ss),
                                ref_endmembers=m_s.mean(axis=0))
    params = model_parameters(theta, phi)
    arena = dc.ParamArena(params)
    order_rng = np.random.default_rng(order_ss)
    noise = RngNoise(np.random.default_rng(noise_ss))
    # shuffled passes, each drawn when the last runs out
    sup_order = itertools.chain(
        order_rng.permutation(len(y_s)), itertools.chain.from_iterable(
            map(order_rng.permutation, itertools.repeat(len(y_s)))))
    n_u = len(d_u)
    history: list[EpochStats] = []
    # one copy of the values at the last epoch end, refreshed in place
    saved = arena.values.copy()
    last_good = arena.views(saved)
    last_epoch = start_epoch - 1

    for epoch in range(start_epoch, start_epoch + config.max_epochs):
        lr = lr_schedule(epoch)
        perm = order_rng.permutation(n_u)
        sums = np.zeros(len(_LOSS_TERMS))
        n_steps = 0
        for start in range(0, n_u, config.batch_size):
            idx = perm[start:start + config.batch_size]
            batch_u = d_u[idx]
            s_idx = np.fromiter(itertools.islice(
                sup_order, min(config.batch_size, len(y_s))), np.intp)
            batch_s = (y_s[s_idx], a_s[s_idx], m_s[s_idx])
            try:
                bd = total_loss(batch_u, batch_s, theta, phi, config, noise)
                if not math.isfinite(bd.total):
                    raise TrainingError("objective diverged")
                backward(-bd.node, params)
                adam_step(arena, lr)
            except (TrainingError, NumericError, np.linalg.LinAlgError) as exc:
                known = isinstance(exc, TrainingError)
                err = TrainingError(exc.message if known else str(exc),
                                    param=exc.param if known else None,
                                    index=exc.index if known else None,
                                    epoch=epoch, batch=n_steps)
                err.last_good, err.last_epoch = last_good, last_epoch
                raise err from None
            sums += [getattr(bd, term) for term in _LOSS_TERMS]
            n_steps += 1
            bd = None       # free the spent graph before the next forward
        means = dict(zip(_LOSS_TERMS, (sums / n_steps).tolist()))
        stats = EpochStats(epoch=epoch, lr=lr, **means)
        history.append(stats)
        np.copyto(saved, arena.values)
        last_epoch = epoch
        if len(history) >= 2:
            prev, cur = history[-2].total, history[-1].total
            rel = (cur - prev) / max(abs(prev), 1e-12)
            if rel < config.rel_stop_tol:
                break
    return theta, phi, history


def history_to_csv(history: list[EpochStats]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HISTORY_COLUMNS)
    for h in history:
        writer.writerow([repr(getattr(h, col)) for col in _HISTORY_COLUMNS])
    return buf.getvalue()
