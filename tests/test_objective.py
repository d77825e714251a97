"""Training objective: bound terms, weights, penalties, composition, training."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp
from scipy.optimize import brentq

import unmix
from conftest import (ReplayNoise, fd_param_grads, max_rel_err, scale_mlp,
                      zero_mlp)
from unmix import diffcore as dc
from unmix import distributions, inference
from unmix import objective as ob
from unmix.distributions import (GAMMA_FLOOR, RngNoise, dirichlet_logpdf,
                                 gaussian_logpdf, std_normal_logpdf)
from unmix.errors import InputError, NumericError, TrainingError
from unmix.generative import flat_abundance_logpdf, log_likelihood
from unmix.inference import init_model, model_parameters, posterior_sample

L, P, H = 8, 2, 2


@pytest.fixture
def model(rng):
    return init_model(L, P, H, lista_layers=4, rng=rng)


def one_hot_batch(rng, n):
    a = np.eye(P)[rng.integers(0, P, n)]
    y = rng.uniform(0.1, 0.9, (n, L))
    m = rng.uniform(0.1, 0.9, (n, P, L))
    return y, a, m


def codes(z):
    """(..., K, P, H) latent draws as the (P, ..., K, H) codes of the bank."""
    return np.moveaxis(z, -2, 0)


def every_node(root) -> list:
    """Every node reachable from ``root``, constants too, parents first."""
    order, seen, stack = [], {id(root)}, [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            order.append(node)
            stack.pop()
    return order


class TestSharedCancellation:
    def test_log_ratio_is_exactly_zero(self, model, rng):
        # q(M|Z) and p(M|Z) are the same computation; their log ratio is 0
        # bit for bit, not merely small
        theta, phi = model
        from unmix.distributions import gaussian_logpdf
        from unmix.generative import em_decode
        z = rng.standard_normal((P, H))
        m = rng.uniform(0, 1, (P, L))
        lq = gaussian_logpdf(m, em_decode(z, theta)).data
        lp = gaussian_logpdf(m, em_decode(z, theta)).data
        assert lq.shape == (P,) and lq.tobytes() == lp.tobytes()

    def test_flat_posterior_cancels_flat_prior(self, rng):
        a = rng.dirichlet(np.ones(3))
        flat = dc.constant(np.ones(3))
        lq = dirichlet_logpdf(a, flat).item()
        lp = flat_abundance_logpdf(a, 3).item()
        assert lq == lp


class TestImportanceWeights:
    def test_single_sample_weight_is_one(self, model, rng):
        theta, phi = model
        z = rng.standard_normal((1, P, H))
        m = rng.uniform(0, 1, (P, L))
        w = ob.importance_weights(m, codes(z), theta)
        assert w.normalized.data.shape == (1,)
        assert w.normalized.data[0] == 1.0

    def test_identical_samples_uniform_weights(self, model, rng):
        theta, phi = model
        z = np.tile(rng.standard_normal((1, P, H)), (5, 1, 1))
        m = rng.uniform(0, 1, (P, L))
        w = ob.importance_weights(m, codes(z), theta)
        np.testing.assert_allclose(w.normalized.data, 0.2, rtol=1e-12)

    def test_normalized_weights_sum_to_one(self, model, rng):
        theta, phi = model
        for _ in range(20):
            z = rng.standard_normal((5, P, H)) * 3
            m = rng.uniform(0, 1, (P, L))
            w = ob.importance_weights(m, codes(z), theta)
            assert abs(w.normalized.data.sum() - 1.0) <= 1e-12

    def test_log_domain_survives_huge_scales(self, model, rng):
        # separations up to 1e3 scales stay finite through log-sum-exp
        theta, phi = model
        theta.em_log_scale.data[...] = np.log(1e-3)
        z = rng.standard_normal((5, P, H)) * 50
        m = rng.uniform(0, 1, (P, L)) + 1e3
        w = ob.importance_weights(m, codes(z), theta)
        assert np.all(np.isfinite(w.normalized.data))
        assert abs(w.normalized.data.sum() - 1.0) <= 1e-12

    def test_batched_equals_per_pixel(self, model, rng):
        theta, phi = model
        B, K = 3, 4
        m = rng.uniform(0.1, 0.9, (B, P, L))
        z = rng.standard_normal((B, K, P, H))
        w = ob.importance_weights(m, codes(z), theta)
        assert w.log_weights.data.shape == (B, K)
        for b in range(B):
            w_b = ob.importance_weights(m[b], codes(z[b]), theta)
            np.testing.assert_allclose(w.log_weights.data[b],
                                       w_b.log_weights.data, rtol=1e-12)
            np.testing.assert_allclose(w.normalized.data[b],
                                       w_b.normalized.data, rtol=1e-12)

    def test_one_underflowed_row_raises(self, model, rng):
        """A finite but huge endmember entry of one labelled row sends that
        row's K log-weights to -inf: a ``NumericError`` naming the row, not
        NaN weights for it while the other rows stay finite."""
        theta, phi = model
        B, K = 4, 3
        m = rng.uniform(0.1, 0.9, (B, P, L))
        m[2, 1, 3] = 1e200
        z = rng.standard_normal((B, K, P, H))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=r"underflowed in row \[2\]$"):
                ob.importance_weights(m, codes(z), theta)


class _ZeroNoise:
    """Deterministic stand-in: zero Gaussians, Dirichlet pinned to its mean."""

    def normal(self, shape):
        return np.zeros(shape)

    def dirichlet(self, conc):
        return conc / conc.sum(axis=-1, keepdims=True)


def per_draw_unsup(y, theta, phi, noise, k_e):
    """The unsupervised bound drawn one posterior pass per draw: the
    reference for ``unsup_term``, whose draws are rows of one pass.
    Returns the bound and the list of the draws' concentrations."""
    total, concentrations = None, []
    for _ in range(k_e):
        s = posterior_sample(y, phi, theta, noise)
        concentrations.append(s.gamma)
        term = (log_likelihood(y, s.a, s.em_matrix, theta)
                + flat_abundance_logpdf(s.a, theta.n_endmembers)
                + -dirichlet_logpdf(s.a, s.gamma)
                + std_normal_logpdf(s.z).sum(axis=0)
                + -gaussian_logpdf(s.z, s.z_dist).sum(axis=0))
        total = term if total is None else total + term
    return (total * (1.0 / k_e)).sum(), concentrations


class TestUnsupTerm:
    def test_one_draw_is_bitwise_the_per_draw_loop(self, model, rng):
        # value, concentration and every parameter gradient, bit for bit
        theta, phi = model
        params = model_parameters(theta, phi)
        y = rng.uniform(0.1, 0.9, (5, L))
        got, gamma = ob.unsup_term(y, theta, phi,
                                   RngNoise(np.random.default_rng(8)), k_e=1)
        want, gammas = per_draw_unsup(y, theta, phi,
                                      RngNoise(np.random.default_rng(8)), 1)
        assert gamma.shape == (1, 5, P)
        assert got.data.tobytes() == want.data.tobytes()
        assert gamma.data[0].tobytes() == gammas[0].data.tobytes()
        g_got = {n: g.copy() for n, g in dc.backward(got, params).items()}
        g_want = dc.backward(want, params)
        assert any(g.any() for g in g_got.values())
        for name, g in g_want.items():
            assert g_got[name].tobytes() == g.tobytes(), name

    def test_draws_as_rows_keep_the_mean(self, model, rng):
        # estimator change at k_e > 1: one pass takes the noise in another
        # order, so a seed gives other draws, but the bound and the
        # concentration norm keep their means
        theta, phi = model
        y = rng.uniform(0.1, 0.9, (3, L))
        n, k_e = 240, 3
        new, ref = np.empty((n, 2)), np.empty((n, 2))
        for s in range(n):
            bound, gamma = ob.unsup_term(
                y, theta, phi, RngNoise(np.random.default_rng(s)), k_e=k_e)
            new[s] = bound.item(), (ob.l_half_norm(gamma)
                                    * (1.0 / k_e)).sum().item()
            bound, gammas = per_draw_unsup(
                y, theta, phi, RngNoise(np.random.default_rng(50_000 + s)),
                k_e)
            ref[s] = bound.item(), np.mean(
                [ob.l_half_norm(g).sum().item() for g in gammas])
        assert np.all(new.std(axis=0) > 0) and np.all(ref.std(axis=0) > 0)
        se = np.sqrt(new.var(axis=0) / n + ref.var(axis=0) / n)
        assert np.all(np.abs(new.mean(axis=0) - ref.mean(axis=0)) <= 3 * se)


# The objective's log-density functions, the factor each gives the
# integrand, and which of their calls give it: the latent posterior's
# ``gaussian_logpdf`` is the one over the codes, of width H.
FACTORS = [pytest.param(fn, factor, poison, id=fn) for fn, factor, poison in [
    ("log_likelihood", "likelihood", lambda x: True),
    ("flat_abundance_logpdf", "abundance prior", lambda x: True),
    ("dirichlet_logpdf", "abundance posterior", lambda x: True),
    ("std_normal_logpdf", "latent prior", lambda x: True),
    ("gaussian_logpdf", "latent posterior",
     lambda x: dc.as_tensor(x).shape[-1] == H)]]


class TestIntegrand:
    @pytest.mark.parametrize("fn,factor,poison", FACTORS)
    @pytest.mark.parametrize("bound", ["unsupervised", "supervised"])
    def test_non_finite_factor_is_named(self, model, rng, monkeypatch, fn,
                                        factor, poison, bound):
        theta, phi = model
        original = getattr(ob, fn)

        def poisoned(x, *args):
            out = original(x, *args)
            return out + dc.constant(np.nan) if poison(x) else out
        monkeypatch.setattr(ob, fn, poisoned)
        noise = RngNoise(np.random.default_rng(0))
        y, a, m = one_hot_batch(rng, 3)
        with pytest.raises(TrainingError,
                           match=f"^non-finite {factor} term in the {bound} "
                                 "bound$"):
            if bound == "unsupervised":
                ob.unsup_term(y, theta, phi, noise, k_e=2)
            else:
                ob.sup_term(y, a, m, theta, phi, noise, k=3)


class TestSupTerm:
    def test_one_hot_abundances_finite(self, model, rng):
        theta, phi = model
        y, a, m = one_hot_batch(rng, 3)
        iw, post, _ = ob.sup_term(y, a, m, theta, phi,
                                  RngNoise(np.random.default_rng(0)), k=3)
        assert math.isfinite(iw.item()) and math.isfinite(post.item())

    def test_identical_z_samples_reduce_to_single_bracket(self, model, rng):
        theta, phi = model
        y, a, m = one_hot_batch(rng, 1)
        iw_k, _, _ = ob.sup_term(y, a, m, theta, phi, _ZeroNoise(), k=5)
        iw_1, _, _ = ob.sup_term(y, a, m, theta, phi, _ZeroNoise(), k=1)
        assert abs(iw_k.item() - iw_1.item()) < 1e-9

    def test_off_simplex_abundances_rejected(self, model, rng):
        theta, phi = model
        y, a, m = one_hot_batch(rng, 2)
        a = a * 1.5
        with pytest.raises(InputError):
            ob.sup_term(y, a, m, theta, phi,
                        RngNoise(np.random.default_rng(0)), k=2)

    def test_posterior_term_rewards_concentration(self):
        # P = 2 sweep at fixed total: density of a near-one-hot target
        # rises as gamma shifts toward the observed vertex
        a = np.array([1.0, 0.0])
        total = 6.0
        vals = []
        for c in (2.0, 3.5, 5.0, 5.9):
            p = dc.constant([c, total - c])
            vals.append(dirichlet_logpdf(a, p).item())
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


class TestSparsityPenalty:
    def test_zero_tau_is_zero(self, model, rng):
        theta, phi = model
        y, a, m = one_hot_batch(rng, 2)
        noise = RngNoise(np.random.default_rng(0))
        _, gamma_u = ob.unsup_term(rng.uniform(0, 1, (2, L)), theta, phi,
                                   noise, k_e=1)
        _, _, gamma_s = ob.sup_term(y, a, m, theta, phi, noise, k=2)
        val = ob.sparsity_penalty(gamma_u, gamma_s, tau=0.0)
        assert val.item() == 0.0

    def test_unit_concentration_gives_tau_times_p(self):
        # rig the streams so gamma is exactly one per coordinate
        rng = np.random.default_rng(0)
        theta, phi = init_model(3, 3, 2, lista_layers=4, rng=rng)
        zero_mlp(phi.nlin_encoder)
        for t in phi.lista.log_eta_steps:
            t.data = np.array(-745.0)            # exp -> 0: idle iterations
        phi.lista.log_eta_unc.data = np.array(0.0)
        m = np.eye(3)[None, :, :]
        y = np.full((1, 3), 1.0 - GAMMA_FLOOR)
        a = np.eye(3)[:1]
        _, _, gamma_s = ob.sup_term(y, a, m, theta, phi,
                                    RngNoise(np.random.default_rng(0)), k=1)
        val = 0.5 * ob.l_half_norm(gamma_s).sum().item()
        assert abs(val - 0.5 * 3.0) < 1e-9

    def test_total_loss_reuses_the_bounds_concentrations(self, model, rng):
        # the penalty is tau * (L1/2 of sup_term's concentration + the mean
        # L1/2 of unsup_term's draws), replayed from the same noise seed
        theta, phi = model
        cfg = ob.TrainConfig(k=2, k_e=2, tau=0.05)
        y_u = rng.uniform(0.1, 0.9, (4, L))
        y, a, m = one_hot_batch(rng, 3)
        bd = ob.total_loss(y_u, (y, a, m), theta, phi, cfg,
                           RngNoise(np.random.default_rng(3)))
        noise = RngNoise(np.random.default_rng(3))
        _, gamma_u = ob.unsup_term(y_u, theta, phi, noise, k_e=2)
        _, _, gamma_s = ob.sup_term(y, a, m, theta, phi, noise, k=2)
        assert gamma_u.shape == (2, 4, P)
        assert not np.array_equal(gamma_u.data[0], gamma_u.data[1])
        want = cfg.tau * (np.sqrt(gamma_s.data).sum()
                          + np.mean([np.sqrt(g).sum() for g in gamma_u.data]))
        assert abs(bd.sparsity - want) <= 1e-12 * abs(want)

    def test_unlabeled_penalty_matches_fresh_posterior_draw(self, model, rng):
        # estimator change: the penalty on unsup_term's own draws has the
        # mean of the norm at an independent posterior draw
        theta, phi = model
        y_u = rng.uniform(0.1, 0.9, (3, L))
        n = 300
        new, ref = np.empty(n), np.empty(n)
        for s in range(n):
            _, gamma_u = ob.unsup_term(y_u, theta, phi,
                                       RngNoise(np.random.default_rng(s)),
                                       k_e=1)
            new[s] = ob.l_half_norm(gamma_u).sum().item()
            draw = posterior_sample(y_u, phi, theta,
                                    RngNoise(np.random.default_rng(10_000 + s)))
            ref[s] = ob.l_half_norm(draw.gamma).sum().item()
        assert new.std() > 0 and ref.std() > 0
        se = math.sqrt(new.var() / n + ref.var() / n)
        assert abs(new.mean() - ref.mean()) <= 3 * se

    def test_concentrated_mass_cheaper_than_spread(self):
        spread = ob.l_half_norm(dc.constant([1.0, 1.0])).item()
        peaked = ob.l_half_norm(dc.constant([2.0 - GAMMA_FLOOR,
                                             GAMMA_FLOOR])).item()
        assert peaked < spread


class TestNetworkNormPenalty:
    def test_zero_networks(self, model):
        theta, phi = model
        zero_mlp(theta.nlin_mixing)
        zero_mlp(phi.nlin_encoder)
        assert ob.network_norm_penalty(theta, phi, 1.0, 1.0).item() == 0.0

    def test_identity_single_layer(self, rng):
        net = dc.MlpParams.create([2, 2], ["linear"], rng, "f")
        net.weights[0].data = np.eye(2)
        net.biases[0].data = np.zeros(2)
        assert abs(ob.fnn_norm(net).item() - math.sqrt(2.0)) < 1e-12

    def test_one_homogeneity(self, model):
        theta, phi = model
        base = ob.network_norm_penalty(theta, phi, 1.3, 0.7).item()
        scale_mlp(theta.nlin_mixing, 2.0)
        scale_mlp(phi.nlin_encoder, 2.0)
        doubled = ob.network_norm_penalty(theta, phi, 1.3, 0.7).item()
        assert abs(doubled - 2.0 * base) < 1e-9


class TestTotalLoss:
    def test_unsup_only_when_weights_vanish(self, model, rng):
        theta, phi = model
        y_u = rng.uniform(0.1, 0.9, (3, L))
        cfg = ob.TrainConfig(lam=0.0, tau=0.0, varsigma1=0.0, varsigma2=0.0,
                             k=2, k_e=1)
        y, a, m = one_hot_batch(rng, 2)
        bd = ob.total_loss(y_u, (y, a, m), theta, phi, cfg,
                           RngNoise(np.random.default_rng(5)))
        ref, _ = ob.unsup_term(y_u, theta, phi,
                               RngNoise(np.random.default_rng(5)), k_e=1)
        assert abs(bd.total - ref.item()) < 1e-9

    def test_breakdown_recomposes(self, model, rng):
        theta, phi = model
        cfg = ob.TrainConfig(k=2, k_e=2, lam=0.7, beta=0.3, tau=0.05)
        y_u = rng.uniform(0.1, 0.9, (4, L))
        y, a, m = one_hot_batch(rng, 3)
        bd = ob.total_loss(y_u, (y, a, m), theta, phi, cfg,
                           RngNoise(np.random.default_rng(2)))
        recomposed = (bd.unsup + cfg.lam * (bd.sup_iw
                                            + (1 + cfg.beta) * bd.sup_posterior)
                      - bd.sparsity - bd.reg)
        assert abs(recomposed - bd.total) < 1e-10

    def test_two_lista_passes_per_step(self, model, rng, monkeypatch):
        # one for the unlabeled draw, one for the labeled batch; the
        # sparsity penalty adds none
        theta, phi = model
        calls = []
        lista = inference.lista_concentration

        def counted(*args):
            calls.append(1)
            return lista(*args)
        monkeypatch.setattr(inference, "lista_concentration", counted)
        cfg = ob.TrainConfig(k=2, k_e=1, tau=0.05)
        y, a, m = one_hot_batch(rng, 3)
        ob.total_loss(rng.uniform(0.1, 0.9, (4, L)), (y, a, m), theta, phi,
                      cfg, RngNoise(np.random.default_rng(0)))
        assert len(calls) == 2

    def test_graph_holds_only_what_parameters_feed(self, model, rng):
        """Every interior node has a parameter among its ancestors, and
        after ``backward`` no constant leaf (data, noise, observed
        endmembers) holds a gradient."""
        theta, phi = model
        params = model_parameters(theta, phi)
        cfg = ob.TrainConfig(k=2, k_e=2, tau=0.05)
        y, a, m = one_hot_batch(rng, 3)
        loss = -ob.total_loss(rng.uniform(0.1, 0.9, (4, L)), (y, a, m),
                              theta, phi, cfg,
                              RngNoise(np.random.default_rng(0))).node
        fed = {id(t) for t in params.values()}
        constants, used = [], []
        order = every_node(loss)                 # parents first
        assert [id(t) for t in dc._toposort(loss)] \
            == [id(t) for t in order if t.requires_grad]
        for node in order:
            if node._parents:
                assert node.requires_grad
                assert any(id(p) in fed for p in node._parents)
                fed.add(id(node))
            elif id(node) in fed:
                used.append(node)
            else:
                assert not node.requires_grad
                constants.append(node)
        assert constants and used
        dc.backward(loss, params)
        assert all(t.grad is None for t in constants)
        assert all(t.grad is not None for t in used)

    def test_graph_nodes_do_not_grow_with_endmembers(self, rng):
        """The decoder bank is one node per layer for any P, and no other
        part of a step loops over the endmembers."""
        counts = []
        for n_em in (3, 5):
            theta, phi = init_model(24, n_em, 2, 11, np.random.default_rng(1))
            y = rng.uniform(0.1, 0.9, (16, 24))
            a = np.eye(n_em)[rng.integers(0, n_em, 16)]
            m = rng.uniform(0.1, 0.9, (16, n_em, 24))
            bd = ob.total_loss(y, (y, a, m), theta, phi, ob.TrainConfig(),
                               RngNoise(np.random.default_rng(2)))
            counts.append(len(every_node(bd.node)))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("lista_layers", [4, 11])
    def test_every_parameter_is_read(self, rng, lista_layers):
        """One step reaches every parameter the model holds: each gets a
        gradient that is not all zero, the last LISTA step size too."""
        theta, phi = init_model(24, 3, 2, lista_layers,
                                np.random.default_rng(1))
        y = rng.uniform(0.1, 0.9, (16, 24))
        a = np.eye(3)[rng.integers(0, 3, 16)]
        m = rng.uniform(0.1, 0.9, (16, 3, 24))
        params = model_parameters(theta, phi)
        bd = ob.total_loss(y, (y, a, m), theta, phi, ob.TrainConfig(),
                           RngNoise(np.random.default_rng(2)))
        grads = dc.backward(-bd.node, params)
        assert f"inf.lista.log_eta{lista_layers - 3}" in grads
        assert [name for name, g in grads.items() if not g.any()] == []

    def test_graph_node_ceiling(self, rng):
        """One step's graph at a fixed small shape: 390 nodes that need a
        gradient, 432 with the constant leaves they read."""
        theta, phi = init_model(24, 3, 2, 11, np.random.default_rng(1))
        y = rng.uniform(0.1, 0.9, (16, 24))
        a = np.eye(3)[rng.integers(0, 3, 16)]
        m = rng.uniform(0.1, 0.9, (16, 3, 24))
        bd = ob.total_loss(y, (y, a, m), theta, phi, ob.TrainConfig(),
                           RngNoise(np.random.default_rng(2)))
        assert len(dc._toposort(bd.node)) <= 390
        assert len(every_node(bd.node)) <= 432


def _materialize_writers(loss):
    """Wrap every VJP under ``loss`` so that each writer it hands back comes
    back as the array it writes: ``backward`` then takes the path of array
    cotangents alone, a copy into the arena and in-place adds."""
    def materializing(vjp, parents):
        def wrapped(g):
            out = []
            for c, p in zip(vjp(g), parents):
                if callable(c):
                    arr = np.empty(p.shape)
                    c(arr, False)
                    c = arr
                out.append(c)
            return tuple(out)
        return wrapped

    for node in dc._toposort(loss):
        if node._vjp is not None:
            node._vjp = materializing(node._vjp, node._parents)


def writer_gap(bands: int, n_em: int, batch: int) -> tuple[float, bool]:
    """One step's gradients at this shape: a packed model's, through the
    writers, against an unpacked copy's with the writers materialized, from
    identical parameters and noise.  Returns the largest difference as a
    share of the parameter's max |g|, and whether all 51 are bitwise equal."""
    def gradients(packed):
        theta, phi = init_model(bands, n_em, 2, 11,
                                np.random.default_rng(4101))
        params = model_parameters(theta, phi)
        if packed:
            dc.ParamArena(params)
        r = np.random.default_rng(4102)
        y = r.uniform(0.1, 0.9, (batch, bands))
        a = np.eye(n_em)[r.integers(0, n_em, batch)]
        m = r.uniform(0.1, 0.9, (batch, n_em, bands))
        loss = -ob.total_loss(y, (y, a, m), theta, phi,
                              ob.TrainConfig(batch_size=batch),
                              RngNoise(np.random.default_rng(4103))).node
        if not packed:
            _materialize_writers(loss)
        return {n: g.copy() for n, g in dc.backward(loss, params).items()}

    arena, own = gradients(True), gradients(False)
    assert len(own) == 51
    gap = max(float(np.max(np.abs(arena[n] - g)) / (np.max(np.abs(g)) or 1.0))
              for n, g in own.items())
    return gap, all(arena[n].tobytes() == g.tobytes() for n, g in own.items())


class TestGradientWriters:
    @pytest.mark.parametrize("bands, n_em, batch", [(224, 5, 64),
                                                    (64, 3, 16)],
                             ids=["dc2", "dc1"])
    def test_step_gradients_equal_the_materialized_path(self, bands, n_em,
                                                        batch):
        """At both bench shapes the writers give the materialized path's
        gradients: bitwise on one BLAS thread, as the benchmark runs, and
        within 1e-12 of max |g| on any, since a threaded dgemm may split a
        contraction where the separate product and add would not."""
        gap, _ = writer_gap(bands, n_em, batch)
        assert gap <= 1e-12
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(unmix.__path__[0])
        env = {k: v for k, v in os.environ.items()
               if k not in ("UNMIX_THREADS", "MKL_NUM_THREADS")}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([here, src]))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_objective as t; "
             f"print(*t.writer_gap({bands}, {n_em}, {batch}))"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0.0", "True"]


class TestBoundOrdering:
    def test_elbo_below_importance_weighted_bound(self, model, rng):
        # Monte Carlo: the single-sample bound sits below a 64-sample
        # importance-weighted likelihood estimate on a tiny two-band model
        theta, phi = init_model(2, 2, 2, lista_layers=3,
                                rng=np.random.default_rng(0))
        y = rng.uniform(0.2, 0.8, 2)
        elbos = np.array([
            ob.unsup_term(y[None, :], theta, phi,
                          RngNoise(np.random.default_rng(s)), k_e=1)[0].item()
            for s in range(1000)])

        def log_ratio(noise):
            from unmix.distributions import (gaussian_logpdf,
                                             std_normal_logpdf)
            from unmix.generative import log_likelihood
            s = posterior_sample(y, phi, theta, noise)
            t = log_likelihood(y, s.a, s.em_matrix, theta)
            t = t + flat_abundance_logpdf(s.a, 2)
            t = t - dirichlet_logpdf(s.a, s.gamma)
            t = t + std_normal_logpdf(s.z).sum(axis=0)
            t = t - gaussian_logpdf(s.z, s.z_dist).sum(axis=0)
            return t.item()

        iw_vals = []
        for s in range(200):
            noise = RngNoise(np.random.default_rng(10_000 + s))
            ratios = np.array([log_ratio(noise) for _ in range(64)])
            c = ratios.max()
            iw_vals.append(c + np.log(np.mean(np.exp(ratios - c))))
        iw_vals = np.array(iw_vals)
        se = (elbos.std() / math.sqrt(len(elbos))
              + iw_vals.std() / math.sqrt(len(iw_vals)))
        assert elbos.mean() <= iw_vals.mean() + 3 * se


class TestFrozenNoiseGradient:
    def test_total_loss_gradient_matches_finite_differences(
            self, pinned_warm_starts):
        # end-to-end check over every parameter with recorded noise; the
        # two-component Dirichlet replays through the inverse Beta cdf so
        # the loss is smooth in the concentration
        rng = np.random.default_rng(4)
        theta, phi = init_model(6, 2, 2, lista_layers=4,
                                rng=np.random.default_rng(21))
        for net in (theta.em_decoder, theta.nlin_mixing, phi.z_trunk,
                    phi.z_mean_head, phi.z_scale_head, phi.nlin_encoder):
            for b in net.biases:
                b.data = b.data + rng.uniform(-0.05, 0.05, b.data.shape)
        y_u = rng.uniform(0.1, 0.9, (2, 6))
        a_s = np.eye(2)[rng.integers(0, 2, 2)]
        y_s = rng.uniform(0.1, 0.9, (2, 6))
        m_s = rng.uniform(0.1, 0.9, (2, 2, 6))
        cfg = ob.TrainConfig(k=2, k_e=1, lam=0.8, beta=0.2, tau=0.02,
                             varsigma1=0.5, varsigma2=0.5)
        noise = ReplayNoise(np.random.default_rng(7))
        params = model_parameters(theta, phi)
        with pinned_warm_starts() as pin:
            bd = ob.total_loss(y_u, (y_s, a_s, m_s), theta, phi, cfg, noise)
            grads = dc.backward(bd.node, params)

            def loss_fn():
                noise.rewind()
                pin.rewind()
                return ob.total_loss(y_u, (y_s, a_s, m_s), theta, phi, cfg,
                                     noise).total

            fd = fd_param_grads(loss_fn, params, h=1e-5)
        assert max_rel_err(grads, fd) < 1e-3


class TestOneHotStationaryPoint:
    @pytest.mark.parametrize("eps, root", [(1e-6, 0.0848), (1e-9, 0.0535)])
    def test_off_label_pull_vanishes_where_simplex_eps_sets_it(
            self, monkeypatch, eps, root):
        """With a one-hot label, P = 5, an on-label gamma of 5 and four equal
        off-label gammas x, d sup_posterior / dx vanishes where
        psi(5 + 4x) - psi(x) + log a~ = 0, a~ = eps / (1 + 3 eps) being the
        clipped, renormalized zero: the stationary point follows
        ``SIMPLEX_EPS``."""
        monkeypatch.setattr(distributions, "SIMPLEX_EPS", eps)
        theta, phi = init_model(8, 5, 2, lista_layers=3,
                                rng=np.random.default_rng(0))
        r = np.random.default_rng(1)
        y, m = r.uniform(0.1, 0.9, (1, 8)), r.uniform(0.1, 0.9, (1, 5, 8))

        def pull(x):
            gamma = dc.parameter([[5.0, x, x, x, x]], "gamma")
            monkeypatch.setattr(ob, "abundance_concentration",
                                lambda *args: gamma)
            _, sup_posterior, _ = ob.sup_term(
                y, np.eye(5)[:1], m, theta, phi,
                RngNoise(np.random.default_rng(2)), k=2)
            g = dc.backward(sup_posterior, {"gamma": gamma})["gamma"][0]
            assert np.allclose(g[1:], g[1], rtol=1e-12, atol=0.0)
            return g[1:].sum()

        found = brentq(pull, 0.01, 1.0, xtol=1e-13)
        a_tilde = eps / (1.0 + 3.0 * eps)
        closed = brentq(lambda x: sp.digamma(5.0 + 4.0 * x) - sp.digamma(x)
                        + np.log(a_tilde), 0.01, 1.0, xtol=1e-13)
        assert abs(found - closed) <= 1e-10
        assert abs(found - root) <= 5e-5


class TestTrain:
    def _toy_data(self, seed=0, n=60, l_bands=8):
        r = np.random.default_rng(seed)
        m = r.uniform(0.2, 0.8, (P, l_bands))
        a = r.dirichlet(np.ones(P), size=n)
        y = a @ m + 0.01 * r.standard_normal((n, l_bands))
        y_s = np.stack([m[k] for k in range(P)] * 10)
        a_s = np.concatenate([np.eye(P)] * 10)
        m_s = np.stack([m] * (P * 10))
        return y, (y_s, a_s, m_s)

    def test_empty_labelled_set_is_refused(self):
        d_u, (y_s, a_s, m_s) = self._toy_data()
        with pytest.raises(InputError, match="^labeled set must be nonempty$"):
            ob.train(d_u, (y_s[:0], a_s[:0], m_s[:0]), ob.TrainConfig(),
                     seed=0, latent_dim=2, lista_layers=4)

    @pytest.mark.parametrize("case", ["no rows", "one axis"])
    def test_empty_unlabelled_set_is_refused(self, case):
        d_u, d_s = self._toy_data()
        d_u = d_u[:0] if case == "no rows" else d_u[0]
        with pytest.raises(InputError, match="^unlabeled data must be a "
                                             "nonempty \\(N, L\\) array$"):
            ob.train(d_u, d_s, ob.TrainConfig(), seed=0, latent_dim=2,
                     lista_layers=4)

    def test_history_capped_at_max_epochs(self):
        d_u, d_s = self._toy_data()
        cfg = ob.TrainConfig(max_epochs=30, batch_size=16)
        _, _, hist = ob.train(d_u, d_s, cfg, seed=0, latent_dim=2, lista_layers=4)
        assert len(hist) <= 30

    def test_single_epoch_history(self):
        d_u, d_s = self._toy_data()
        cfg = ob.TrainConfig(max_epochs=1)
        _, _, hist = ob.train(d_u, d_s, cfg, seed=0, latent_dim=2, lista_layers=4)
        assert len(hist) == 1 and hist[0].epoch == 0

    def test_bitwise_deterministic_history(self):
        d_u, d_s = self._toy_data()
        cfg = ob.TrainConfig(max_epochs=3, rel_stop_tol=-1.0)
        _, _, h1 = ob.train(d_u, d_s, cfg, seed=7, latent_dim=2, lista_layers=4)
        _, _, h2 = ob.train(d_u, d_s, cfg, seed=7, latent_dim=2, lista_layers=4)
        assert ob.history_to_csv(h1) == ob.history_to_csv(h2)

    def test_early_stop_on_small_relative_increase(self):
        d_u, d_s = self._toy_data()
        cfg = ob.TrainConfig(max_epochs=30, rel_stop_tol=1e9)
        _, _, hist = ob.train(d_u, d_s, cfg, seed=0, latent_dim=2, lista_layers=4)
        assert len(hist) == 2

    def test_objective_trends_up_on_dc1_toy(self):
        # epoch-mean objective is non-decreasing over the first 5 epochs
        # for at least 4 of 5 seeds on reduced synthetic bilinear scenes
        from test_data import dc1_scene
        from unmix import data as dt
        wins = 0
        for seed in range(5):
            root = np.random.default_rng(seed)
            lib_r, map_r, mix_r, vca_r, set_r = root.spawn(5)
            lib = dt.synth_endmember_library(24, 2, lib_r)
            maps = dt.synth_abundance_maps(12, 12, 2, map_r)
            pixels = dc1_scene(maps, lib, 30.0, mix_r)
            refs = dt.vca(pixels, 2, vca_r)
            ppx = dt.extract_pure_pixels(pixels, refs, 20)
            sup = dt.build_supervised_set(ppx, 30, 30.0, set_r)
            cfg = ob.TrainConfig(max_epochs=5, rel_stop_tol=-1.0)
            _, _, hist = ob.train(pixels, sup, cfg, seed=seed,
                                  latent_dim=2, lista_layers=6)
            totals = [h.total for h in hist]
            if all(t2 >= t1 for t1, t2 in zip(totals, totals[1:])):
                wins += 1
        assert wins >= 4

    def test_non_finite_gradient_names_the_entry_once(self, monkeypatch):
        from unmix.errors import TrainingError
        d_u, d_s = self._toy_data()
        backward = ob.backward

        def poisoned(loss, params):
            grads = backward(loss, params)
            grads["gen.em_decoder.w2"][1, 3, 0] = np.nan
            return grads
        monkeypatch.setattr(ob, "backward", poisoned)
        with pytest.raises(TrainingError) as info:
            ob.train(d_u, d_s, ob.TrainConfig(max_epochs=1), seed=0,
                     latent_dim=2, lista_layers=4)
        assert str(info.value) == ("non-finite gradient; parameter="
                                   "gen.em_decoder.w2 index (1, 3, 0); "
                                   "epoch=0; batch=0")
        assert info.value.index == (1, 3, 0)

    def test_divergence_raises_training_error_with_context(self):
        from unmix.errors import TrainingError
        d_u, d_s = self._toy_data()
        d_u = d_u.copy()
        d_u[5, 2] = np.nan
        cfg = ob.TrainConfig(max_epochs=2)
        with pytest.raises(TrainingError) as exc_info:
            ob.train(d_u, d_s, cfg, seed=0, latent_dim=2, lista_layers=4)
        assert exc_info.value.epoch is not None
        assert exc_info.value.batch is not None

    def test_last_good_is_the_last_finished_epoch(self, monkeypatch):
        """A step that fails in epoch 1, after one step of that epoch has
        moved the parameters, reports the values at the end of epoch 0."""
        d_u, d_s = self._toy_data()
        cfg = ob.TrainConfig(max_epochs=2, batch_size=16, rel_stop_tol=-1.0)
        theta, phi, _ = ob.train(d_u, d_s, ob.TrainConfig(
            max_epochs=1, batch_size=16), seed=3, latent_dim=2,
            lista_layers=4)
        epoch0 = {n: t.data.copy()
                  for n, t in model_parameters(theta, phi).items()}
        backward, calls = ob.backward, []

        def fail_in_epoch_1(loss, params):
            calls.append(None)
            if len(calls) == 6:      # epoch 1, batch 1 (4 steps an epoch)
                raise TrainingError("objective diverged")
            return backward(loss, params)
        monkeypatch.setattr(ob, "backward", fail_in_epoch_1)
        with pytest.raises(TrainingError) as info:
            ob.train(d_u, d_s, cfg, seed=3, latent_dim=2, lista_layers=4)
        assert (info.value.epoch, info.value.batch) == (1, 1)
        assert info.value.last_epoch == 0
        assert info.value.last_good.keys() == epoch0.keys()
        for name, a in epoch0.items():
            assert info.value.last_good[name].tobytes() == a.tobytes(), name

    def test_peak_holds_one_last_good_copy(self):
        """A 2-epoch run on the bench's 224 bands and P = 5 holds the
        values, gradient, two Adam moments and one last-good copy, each
        the arena's size, and only a step's worth more: the peak stays
        below 5.75 arena-sized buffers (two last-good copies read 6.01)."""
        import scipy.linalg.blas, scipy.special  # noqa: E401, F401
        bands, n_em = 224, 5
        r = np.random.default_rng(0)
        m = r.uniform(0.2, 0.8, (n_em, bands))
        a = r.dirichlet(np.ones(n_em), size=16)
        y = a @ m + 0.01 * r.standard_normal((16, bands))
        d_s = (m.copy(), np.eye(n_em), np.stack([m] * n_em))
        theta, phi = init_model(bands, n_em, 2, 11, np.random.default_rng(0))
        arena_bytes = sum(t.data.nbytes for t in
                          model_parameters(theta, phi).values())
        theta = phi = None
        cfg = ob.TrainConfig(max_epochs=2, batch_size=16, rel_stop_tol=-1.0)
        tracemalloc.start()
        try:
            ob.train(y, d_s, cfg, seed=0, latent_dim=2, lista_layers=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.75 * arena_bytes, peak / arena_bytes
