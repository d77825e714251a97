"""Training objective and optimization loop.

The maximized objective combines, per batch:

* an unsupervised bound: Monte Carlo average of
  log p(y, a, M, Z) - log q(a, M, Z | y) over ancestral posterior draws,
  where the q(M|Z)/p(M|Z) ratio vanishes identically because the decoders
  are shared;
* a supervised bound over labeled (y, a, M) triples: a self-normalized
  importance-weighted log-ratio over latent draws, plus a posterior-
  likelihood regularizer weighted by (1 + beta), the whole block scaled
  by lambda;
* an L1/2 penalty on the Dirichlet concentrations (sparsity), taken on
  the concentrations the two bounds already built: the labeled pixels'
  at their observed endmembers and the unlabeled pixels' at each
  posterior draw;
* a norm penalty on the two nonlinear networks.

Training minimizes the negation with Adam under the decaying schedule and
stops early once the relative objective increase between epochs falls
below the tolerance.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import AdamState, Tensor, adam_step, backward, lr_schedule
from .distributions import (DiagGaussian, RngNoise, dirichlet_logpdf,
                            gaussian_logpdf, gaussian_rsample,
                            std_normal_logpdf)
from .errors import ContractError, InputError, NumericError, TrainingError
from .generative import (GenerativeParams, em_decode, flat_abundance_logpdf,
                         log_likelihood)
from .inference import (InferenceParams, abundance_concentration, encode_z,
                        init_model, model_parameters, posterior_sample)

__all__ = ["TrainConfig", "LossBreakdown", "EpochStats", "unsup_term",
           "importance_weights", "ImportanceWeights", "sup_term",
           "sparsity_penalty", "network_norm_penalty", "fnn_norm",
           "l_half_norm", "total_loss", "train", "history_to_csv"]


@dataclass
class TrainConfig:
    """All objective and schedule hyperparameters.

    ``lam`` balances the supervised block, ``beta`` weights the posterior
    regularizer, ``tau`` the sparsity penalty, ``varsigma1``/``varsigma2``
    the nonlinear-network norms.  ``k`` is the importance-sample count,
    ``k_e`` the Monte Carlo sample count for plain expectations.
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
        return {"lambda": self.lam, "beta": self.beta, "tau": self.tau,
                "varsigma1": self.varsigma1, "varsigma2": self.varsigma2,
                "k": self.k, "k_e": self.k_e, "batch_size": self.batch_size,
                "max_epochs": self.max_epochs,
                "rel_stop_tol": self.rel_stop_tol}


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


def _assert_shared(theta: GenerativeParams, phi: InferenceParams):
    if phi.em_decoder is not theta.em_decoder:
        raise ContractError("inference model must share the generative decoders")


def _as_batch(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    return y[None, :] if y.ndim == 1 else y


def unsup_term(y, theta: GenerativeParams, phi: InferenceParams, noise,
               k_e: int = 1) -> tuple[Tensor, list[Tensor]]:
    """Evidence bound for unlabeled pixels, summed over the batch.

    For each pixel, averages log p(y, a, M, Z) - log q(a, M, Z | y) over
    ``k_e`` ancestral draws; the shared-decoder terms cancel exactly and
    are therefore omitted rather than computed.  Also returns the
    abundance concentration of each draw, (B, P) apiece, for the
    sparsity penalty.
    """
    _assert_shared(theta, phi)
    if isinstance(noise, np.random.Generator):
        noise = RngNoise(noise)
    y_b = _as_batch(y)
    total = None
    concentrations = []
    for _ in range(k_e):
        s = posterior_sample(y_b, phi, theta, noise)
        concentrations.append(s.gamma.concentration)
        factors = {
            "likelihood": log_likelihood(y_b, s.a, s.em_matrix, theta),
            "abundance prior": flat_abundance_logpdf(s.a, theta.n_endmembers),
            "abundance posterior": -dirichlet_logpdf(s.a, s.gamma),
            "latent prior": std_normal_logpdf(s.z).sum(axis=0),
            "latent posterior": -gaussian_logpdf(s.z, s.z_dist).sum(axis=0),
        }
        term = None
        for name, f in factors.items():
            if not np.all(np.isfinite(f.data)):
                raise TrainingError(f"non-finite {name} term in the "
                                    "unsupervised bound")
            term = f if term is None else term + f
        total = term if total is None else total + term
    return (total * (1.0 / k_e)).sum(), concentrations


@dataclass
class ImportanceWeights:
    """Endmember-likelihood weights over latent draws, kept in log domain."""

    log_weights: Tensor     # (..., K)
    normalized: Tensor      # (..., K), sums to 1 over the last axis


def importance_weights(em_matrix, z, theta: GenerativeParams
                       ) -> ImportanceWeights:
    """Self-normalized weights w_i = q(M | Z_i) for observed M over K draws.

    ``em_matrix``: (..., L, P) observed data; ``z``: the latent codes,
    (P, ..., K, H).  log w_i is the sum over endmembers of
    log N(m_k; decoder_k(z_ik), scale_k); gradients reach the decoders and
    flow back through ``z``, while ``em_matrix`` is treated as data.
    """
    em = np.asarray(em_matrix.data if isinstance(em_matrix, Tensor)
                    else em_matrix, dtype=np.float64)
    m = dc.constant(np.moveaxis(em, -1, 0)[..., None, :])     # (P, ..., 1, L)
    log_w = gaussian_logpdf(m, em_decode(z, theta)).sum(axis=0)   # (..., K)
    if not np.any(np.isfinite(log_w.data)):
        raise NumericError("all importance weights underflowed")
    norm = dc.exp(log_w - dc.logsumexp(log_w, axis=-1))
    return ImportanceWeights(log_weights=log_w, normalized=norm)


def _check_simplex(a: np.ndarray):
    if np.any(a < -1e-9) or np.any(np.abs(a.sum(axis=-1) - 1.0) > 1e-6):
        raise InputError("observed abundances must lie on the unit simplex")


def sup_term(y, a, em_matrix, theta: GenerativeParams, phi: InferenceParams,
             noise, k: int = 5) -> tuple[Tensor, Tensor, Tensor]:
    """Supervised bound pieces for labeled triples, summed over the batch.

    Returns ``(sup_iw, sup_posterior, concentration)``: the
    importance-weighted log-ratio, the posterior-likelihood regularizer
    (it enters the total with weight lambda * (1 + beta)), and the (B, P)
    abundance concentration at the observed endmembers, for the sparsity
    penalty.
    """
    _assert_shared(theta, phi)
    if isinstance(noise, np.random.Generator):
        noise = RngNoise(noise)
    y_b = _as_batch(y)
    a_b = _as_batch(a)
    em = np.asarray(em_matrix.data if isinstance(em_matrix, Tensor)
                    else em_matrix, dtype=np.float64)
    if em.ndim == 2:
        em = em[None, :, :]
    _check_simplex(a_b)
    B = y_b.shape[0]
    P, H = phi.n_endmembers, phi.latent_dim

    z_dist = encode_z(y_b, phi)
    z_q = DiagGaussian(mean=z_dist.mean.reshape((B, 1, H)),
                       scale=z_dist.scale.reshape((B, 1, H)))
    xi = noise.normal((B, k, P, H))
    z = gaussian_rsample(z_q, np.moveaxis(xi, 2, 0))                  # (P, B, K, H)
    w = importance_weights(em, z, theta)                              # (B, K)

    gamma = abundance_concentration(y_b, dc.constant(em), phi)
    lq_a = dirichlet_logpdf(a_b, gamma)                               # (B,)
    ll = log_likelihood(y_b, a_b, em, theta)                          # (B,)
    lp_a = flat_abundance_logpdf(a_b, P)                              # (B,)
    fixed = (ll + lp_a - lq_a).reshape((B, 1))
    lp_z = std_normal_logpdf(z).sum(axis=0)
    lq_z = gaussian_logpdf(z, z_q).sum(axis=0)
    bracket = fixed + lp_z - lq_z                                     # (B, K)
    sup_iw = (w.normalized * bracket).sum(axis=-1).sum()
    sup_posterior = (lq_a + w.log_weights.mean(axis=-1)).sum()
    return sup_iw, sup_posterior, gamma.concentration


def l_half_norm(x: Tensor) -> Tensor:
    """Sum of square roots over the last axis (entries must be nonnegative)."""
    return (dc.as_tensor(x) ** 0.5).sum(axis=-1)


def sparsity_penalty(gamma_u: list[Tensor], gamma_s: Tensor | None,
                     tau: float = 0.01) -> Tensor:
    """tau-weighted L1/2 norm of the abundance concentrations.

    ``gamma_s``: the (B, P) concentration of the labeled pixels at their
    observed endmember matrices, or None; ``gamma_u``: one (B, P)
    concentration per posterior draw of the unlabeled pixels (possibly
    none), whose norms are averaged over the draws.
    """
    if tau == 0.0:
        return dc.constant(0.0)
    total = dc.constant(0.0)
    if gamma_s is not None:
        total = total + l_half_norm(gamma_s).sum()
    if gamma_u:
        acc = None
        for gamma in gamma_u:
            term = l_half_norm(gamma)
            acc = term if acc is None else acc + term
        total = total + (acc * (1.0 / len(gamma_u))).sum()
    return tau * total


def fnn_norm(net) -> Tensor:
    """Network norm: sum over layers of ||W||_F + ||b||_2."""
    total = dc.constant(0.0)
    for w, b in zip(net.weights, net.biases):
        total = total + dc.l2norm(w) + dc.l2norm(b)
    return total


def network_norm_penalty(theta: GenerativeParams, phi: InferenceParams,
                         varsigma1: float, varsigma2: float) -> Tensor:
    return (varsigma1 * fnn_norm(theta.nlin_mixing)
            + varsigma2 * fnn_norm(phi.nlin_encoder))


def total_loss(batch_u, batch_s, theta: GenerativeParams, phi: InferenceParams,
               config: TrainConfig, noise) -> LossBreakdown:
    """Assemble the maximized objective on one (possibly partial) batch.

    ``batch_u``: (B, L) unlabeled pixels or None; ``batch_s``: tuple
    (Y, A, M) of labeled arrays or None.
    """
    if isinstance(noise, np.random.Generator):
        noise = RngNoise(noise)
    zero = dc.constant(0.0)
    unsup, gamma_u = zero, []
    if batch_u is not None and len(batch_u):
        unsup, gamma_u = unsup_term(batch_u, theta, phi, noise, config.k_e)
    sup_iw, sup_post, gamma_s = zero, zero, None
    if batch_s is not None and len(batch_s[0]):
        y_s, a_s, em_s = batch_s
        sup_iw, sup_post, gamma_s = sup_term(y_s, a_s, em_s, theta, phi,
                                             noise, config.k)
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


def _supervised_arrays(d_s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(d_s, tuple):
        y, a, m = d_s
        return (np.asarray(y, np.float64), np.asarray(a, np.float64),
                np.asarray(m, np.float64))
    y = np.stack([s.y for s in d_s])
    a = np.stack([s.a for s in d_s])
    m = np.stack([s.em for s in d_s])
    return y, a, m


class _SupervisedCycler:
    """Deterministic shuffled cycling through the labeled set."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def take(self, count: int) -> np.ndarray:
        out = []
        while count > 0:
            if self.pos >= self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            grab = min(count, self.n - self.pos)
            out.append(self.order[self.pos:self.pos + grab])
            self.pos += grab
            count -= grab
        return np.concatenate(out)


def train(d_u: np.ndarray, d_s, config: TrainConfig, seed: int,
          latent_dim: int = 2, lista_layers: int = 11,
          theta: GenerativeParams | None = None,
          phi: InferenceParams | None = None,
          start_epoch: int = 0):
    """Fit (theta, phi) on unlabeled pixels d_u and labeled triples d_s.

    Deterministic given ``seed``: initialization, batch order, and every
    sampled noise value flow from named substreams of one seed sequence.
    Returns ``(theta, phi, history)`` with per-epoch statistics.  The
    parameters of (theta, phi) are packed into the optimizer's arena, so
    their ``.data`` are views of it from then on.
    """
    d_u = np.asarray(d_u, dtype=np.float64)
    if d_u.ndim != 2 or not len(d_u):
        raise InputError("unlabeled data must be a nonempty (N, L) array")
    y_s, a_s, m_s = _supervised_arrays(d_s)
    ss = np.random.SeedSequence(seed)
    init_ss, order_ss, noise_ss = ss.spawn(3)
    if theta is None or phi is None:
        ref = m_s.mean(axis=0) if len(m_s) else None
        theta, phi = init_model(d_u.shape[1], a_s.shape[1], latent_dim,
                                lista_layers, np.random.default_rng(init_ss),
                                ref_endmembers=ref)
    params = model_parameters(theta, phi)
    state = AdamState.create(params)
    order_rng = np.random.default_rng(order_ss)
    noise = RngNoise(np.random.default_rng(noise_ss))
    sup_cycler = _SupervisedCycler(len(y_s), order_rng) if len(y_s) else None
    n_u = len(d_u)
    history: list[EpochStats] = []
    last_good = state.arena.snapshot()
    last_epoch = start_epoch - 1

    for epoch in range(start_epoch, start_epoch + config.max_epochs):
        lr = lr_schedule(epoch)
        perm = order_rng.permutation(n_u)
        sums = np.zeros(6)
        n_steps = 0
        for start in range(0, n_u, config.batch_size):
            idx = perm[start:start + config.batch_size]
            batch_u = d_u[idx]
            if sup_cycler is not None:
                s_idx = sup_cycler.take(min(config.batch_size, len(y_s)))
                batch_s = (y_s[s_idx], a_s[s_idx], m_s[s_idx])
            else:
                batch_s = None
            try:
                bd = total_loss(batch_u, batch_s, theta, phi, config, noise)
                if not math.isfinite(bd.total):
                    raise TrainingError("objective diverged")
                grads = backward(-bd.node, params)
                adam_step(params, grads, state, lr)
            except (TrainingError, NumericError, np.linalg.LinAlgError) as exc:
                known = isinstance(exc, TrainingError)
                err = TrainingError(exc.message if known else str(exc),
                                    param=exc.param if known else None,
                                    index=exc.index if known else None,
                                    epoch=epoch, batch=n_steps)
                err.last_good, err.last_epoch = last_good, last_epoch
                raise err from None
            sums += np.array([bd.unsup, bd.sup_iw, bd.sup_posterior,
                              bd.sparsity, bd.reg, bd.total])
            n_steps += 1
            bd = grads = None       # free the spent graph before the next forward
        means = (sums / n_steps).tolist()
        stats = EpochStats(epoch=epoch, unsup=means[0], sup_iw=means[1],
                           sup_posterior=means[2], sparsity=means[3],
                           reg=means[4], total=means[5], lr=lr)
        history.append(stats)
        last_good = state.arena.snapshot()
        last_epoch = epoch
        if len(history) >= 2:
            prev, cur = history[-2].total, history[-1].total
            rel = (cur - prev) / max(abs(prev), 1e-12)
            if rel < config.rel_stop_tol:
                break
    return theta, phi, history


_HISTORY_COLUMNS = ["epoch", "unsup", "sup_iw", "sup_posterior", "sparsity",
                    "reg", "total", "lr"]


def history_to_csv(history: list[EpochStats]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HISTORY_COLUMNS)
    for h in history:
        writer.writerow([h.epoch, repr(h.unsup), repr(h.sup_iw),
                         repr(h.sup_posterior), repr(h.sparsity),
                         repr(h.reg), repr(h.total), repr(h.lr)])
    return buf.getvalue()
