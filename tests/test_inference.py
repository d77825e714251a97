"""Posterior model: latent encoder, unrolled stream, concentration, sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import nnls

from conftest import fd_param_grads, max_rel_err, zero_mlp
from unmix import diffcore as dc
from unmix import inference as inf
from unmix.distributions import GAMMA_FLOOR, RngNoise
from unmix.generative import GenerativeParams, mixing_mean

L, P, H = 10, 3, 2


@pytest.fixture
def model(rng):
    return inf.init_model(L, P, H, lista_layers=6, rng=rng)


def set_lista(phi, steps=None, sparse=0.01, unc=1.0):
    if steps is not None:
        for t in phi.lista.log_eta_steps:
            t.data = np.array(np.log(steps) if steps > 0 else -745.0)
    phi.lista.log_eta_sparse.data = np.array(
        np.log(sparse) if sparse > 0 else -745.0)
    phi.lista.log_eta_unc.data = np.array(np.log(unc))


def _latent(s) -> np.ndarray:
    """The sampled codes as the columns of one (..., H, P) array."""
    return np.stack([z.data for z in s.z_columns], axis=-1)


class TestEncodeZ:
    def test_zero_weights_bias_determined(self, model):
        theta, phi = model
        for net in (phi.z_trunk, phi.z_mean_head, phi.z_scale_head):
            for w in net.weights:
                w.data = np.zeros_like(w.data)
        d = inf.encode_z(np.linspace(0, 1, L), phi)
        # biases are zero too, so the mean collapses to 0 and the scale to 1
        np.testing.assert_allclose(d.mean.data, 0.0)
        np.testing.assert_allclose(d.scale.data, 1.0)

    def test_same_conditional_for_every_code(self, model, rng):
        theta, phi = model
        y = rng.uniform(0, 1, L)
        s = inf.posterior_sample(y, phi, theta, RngNoise(np.random.default_rng(0)))
        assert len(s.z_columns) == P
        assert _latent(s).shape == (H, P)

    def test_scales_strictly_positive(self, model, rng):
        theta, phi = model
        for _ in range(10):
            d = inf.encode_z(rng.uniform(-2, 2, L), phi)
            assert np.all(d.scale.data > 0)

    def test_mean_gradient_wrt_input(self, model, rng):
        theta, phi = model
        y = dc.parameter(rng.uniform(0.1, 0.9, L), "y")
        d = inf.encode_z(y, phi)
        grads = dc.backward(d.mean.sum(), {"y": y})

        def loss_fn():
            return float(inf.encode_z(y, phi).mean.data.sum())

        fd = fd_param_grads(loss_fn, {"y": y})
        assert max_rel_err(grads, fd) < 1e-4


class TestListaConcentration:
    def test_pure_pixel_matches_nnls_oracle(self, rng):
        theta, phi = inf.init_model(L, P, H, lista_layers=60, rng=rng)
        M = rng.uniform(0.1, 0.9, (L, P))
        set_lista(phi, steps=None, sparse=0.0, unc=1.0)
        gram_lip = np.linalg.eigvalsh(M.T @ M)[-1]
        for t in phi.lista.log_eta_steps:
            t.data = np.array(np.log(1.0 / gram_lip))
        y = M[:, 1]
        out = inf.lista_concentration(y, dc.constant(M), phi).data
        ref, _ = nnls(M, y)
        peak = out.max()
        assert np.argmax(out) == np.argmax(ref) == 1
        off = np.delete(out, 1)
        assert np.all(off <= 1e-3 * peak)

    def test_huge_shrinkage_zeroes_output(self, model, rng):
        theta, phi = model
        set_lista(phi, steps=0.05, sparse=1e6, unc=1.0)
        M = rng.uniform(0.1, 0.9, (L, P))
        y = rng.uniform(0, 1, L)
        out = inf.lista_concentration(y, dc.constant(M), phi).data
        np.testing.assert_allclose(out, 0.0)

    def test_zero_steps_fixed_point(self, model, rng):
        theta, phi = model
        set_lista(phi, steps=0.0, sparse=0.01, unc=7.0)
        M = rng.uniform(0.1, 0.9, (L, P))
        a = rng.dirichlet(np.ones(P))
        y = M @ a                       # pseudoinverse solution is >= 0
        h1 = np.linalg.pinv(M, rcond=1e-8) @ y
        assert np.all(h1 >= 0)
        out = inf.lista_concentration(y, dc.constant(M), phi).data
        np.testing.assert_allclose(out, 7.0 * h1, rtol=1e-9)

    def test_residual_decreases_across_layers(self, rng):
        # property: gradient steps below 2 / sigma_max(M^T M) shrink the
        # least squares residual layer by layer (shrinkage off).  The
        # comparison starts at the first projected iterate; the
        # pseudoinverse warm start is the unconstrained minimizer and may
        # sit outside the nonnegative orthant.
        for trial in range(5):
            M = rng.uniform(0.1, 0.9, (L, P))
            y = rng.uniform(0, 1, L)
            lip = np.linalg.eigvalsh(M.T @ M)[-1]
            resids = []
            for layers in range(3, 10):
                theta, phi = inf.init_model(L, P, H, lista_layers=layers,
                                            rng=np.random.default_rng(trial))
                set_lista(phi, steps=1.0 / lip, sparse=0.0, unc=1.0)
                h = inf.lista_concentration(y, dc.constant(M), phi).data
                resids.append(np.linalg.norm(M @ h - y))
            assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(resids, resids[1:]))

    def test_rank_deficient_matrix_no_error(self, model, rng):
        theta, phi = model
        M = np.zeros((L, P))
        M[:, 0] = rng.uniform(0.1, 0.9, L)
        M[:, 1] = M[:, 0]               # duplicate column: rank 2
        M[:, 2] = rng.uniform(0.1, 0.9, L)
        out = inf.lista_concentration(M[:, 0], dc.constant(M), phi).data
        assert np.all(np.isfinite(out))

    def test_unused_last_step_size_gets_zero_gradient(self, model, rng):
        theta, phi = model
        M = rng.uniform(0.1, 0.9, (L, P))
        y = rng.uniform(0, 1, L)
        out = inf.lista_concentration(y, dc.constant(M), phi)
        params = phi.lista.named_parameters()
        grads = dc.backward(out.sum(), params)
        last = f"inf.lista.log_eta{phi.lista.n_layers - 2}"
        assert np.array_equal(grads[last], np.zeros(()))


def _explicit_lista(y, M, phi):
    """Reference recurrence h <- relu(h - eta M^T (M h - y) - eta eta_sp)."""
    h = dc.constant(np.squeeze(np.linalg.pinv(M.data, rcond=1e-8)
                               @ y[..., None], axis=-1))
    y_col = dc.constant(y[..., None])
    eta_sp = dc.exp(phi.lista.log_eta_sparse)
    for m in range(phi.lista.n_layers - 2):
        eta = dc.exp(phi.lista.log_eta_steps[m])
        resid = dc.matmul(M, h.reshape(h.shape + (1,))) - y_col
        grad = dc.matmul(M.transpose(), resid).reshape(h.shape)
        h = dc.relu(h - eta * grad - eta_sp * eta)
    return dc.exp(phi.lista.log_eta_unc) * h


class TestListaGramForm:
    """The Gram-form layers against the explicit residual recurrence."""

    def _case(self, rng, batch, rank_deficient=False):
        M = rng.uniform(0.1, 0.9, batch + (L, P))
        if rank_deficient:
            M[..., 1] = M[..., 0]
        a = rng.dirichlet(np.ones(P), size=batch or None)
        y = np.einsum("...lp,...p->...l", M, a) + 0.05 * rng.standard_normal(
            batch + (L,))
        ref_em = M.reshape(-1, L, P).mean(axis=0)
        _, phi = inf.init_model(L, P, H, lista_layers=11, rng=rng,
                                ref_endmembers=ref_em)
        for k, t in enumerate(phi.lista.log_eta_steps):
            t.data = t.data + 0.1 * np.sin(k)     # distinct step sizes
        return y, M, phi

    @pytest.mark.parametrize("batch,rank_deficient", [
        ((), False), ((6,), False), ((2, 3), False), ((5,), True)])
    def test_values_and_gradients_match_reference(self, rng, batch,
                                                  rank_deficient):
        y, M, phi = self._case(rng, batch, rank_deficient)
        weights = rng.standard_normal(batch + (P,))
        outs, grads = [], []
        for fn in (inf.lista_concentration, _explicit_lista):
            m_param = dc.parameter(M.copy(), "M")
            out = fn(y, m_param, phi)
            params = {"M": m_param, **phi.lista.named_parameters()}
            grads.append(dc.backward((out * weights).sum(), params))
            outs.append(out.data)
        got, ref = outs
        assert np.abs(ref).max() > 0
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        g_got, g_ref = grads
        assert set(g_got) == set(g_ref)
        for name in g_ref:
            tol = 1e-10 * max(1.0, float(np.abs(g_ref[name]).max()))
            assert np.abs(g_got[name] - g_ref[name]).max() <= tol, name


class TestWarmStart:
    """The SVD-applied warm start against pinv(M, rcond=1e-8) @ y."""

    @pytest.mark.parametrize("batch,column", [
        ((), None), ((6,), None), ((2, 3), None),
        ((6,), "duplicate"), ((6,), "zero")])
    def test_matches_pseudoinverse_solution(self, rng, batch, column):
        M = rng.uniform(0.1, 0.9, batch + (L, P))
        if column == "duplicate":
            M[..., 2] = M[..., 0]
        elif column == "zero":
            M[..., 1] = 0.0
        y = rng.uniform(0.0, 1.0, batch + (L,))
        ref = np.squeeze(np.linalg.pinv(M, rcond=1e-8) @ y[..., None], axis=-1)
        got = inf._least_squares_start(M, y)
        assert got.shape == batch + (P,)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_never_holds_the_pseudoinverse(self, rng):
        # pinv holds a copy of M, U, s U^T and the (N, P, L) result at
        # once (about 3x M); the SVD-applied solve holds U (1x M) and
        # per-pixel vectors, which are small at the scene's L and P
        M = rng.uniform(0.1, 0.9, (500, 224, 5))
        y = rng.uniform(0.0, 1.0, (500, 224))
        tracemalloc.start()
        try:
            inf._least_squares_start(M, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * M.nbytes

    def test_pin_replays_the_first_warm_start(self, model, rng,
                                              pinned_warm_starts):
        theta, phi = model
        M = rng.uniform(0.1, 0.9, (4, L, P))
        y = rng.uniform(0.0, 1.0, (4, L))
        with pinned_warm_starts() as pin:
            first = inf.lista_concentration(y, dc.constant(M), phi).data
            pin.rewind()
            replay = inf.lista_concentration(y, dc.constant(M * 1.5), phi).data
        moved = inf.lista_concentration(y, dc.constant(M * 1.5), phi).data
        assert len(pin.store) == 1
        assert np.array_equal(pin.store[0], inf._least_squares_start(M, y))
        assert not np.array_equal(replay, moved)
        assert not np.array_equal(replay, first)


class TestAbundanceConcentration:
    def test_single_stream_when_nonlinear_zeroed(self, model, rng):
        theta, phi = model
        zero_mlp(phi.nlin_encoder)
        M = rng.uniform(0.1, 0.9, (L, P))
        y = rng.uniform(0, 1, L)
        lin = inf.lista_concentration(y, dc.constant(M), phi).data
        conc = inf.abundance_concentration(y, dc.constant(M), phi)
        np.testing.assert_allclose(conc.concentration.data,
                                   np.maximum(lin, 0) + GAMMA_FLOOR)

    def test_floor_always_respected(self, model, rng):
        theta, phi = model
        for _ in range(20):
            M = rng.uniform(0.1, 0.9, (L, P))
            y = rng.uniform(-1, 2, L)
            conc = inf.abundance_concentration(y, dc.constant(M), phi)
            assert np.all(conc.concentration.data >= GAMMA_FLOOR)

    def test_disentangled_from_latent_encoder(self, model, rng):
        # abundances see Z only through M: the latent nets get no gradient
        theta, phi = model
        M = rng.uniform(0.1, 0.9, (L, P))
        y = rng.uniform(0, 1, L)
        conc = inf.abundance_concentration(y, dc.constant(M), phi)
        z_params = {}
        for net in (phi.z_trunk, phi.z_mean_head, phi.z_scale_head):
            z_params.update(net.named_parameters())
        grads = dc.backward(conc.concentration.sum(), z_params)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())


class TestPosteriorSample:
    def test_collapsed_scales_near_deterministic(self, model, rng):
        theta, phi = model
        for t in theta.em_log_scales:
            t.data = np.array(np.log(1e-9))
        for w in phi.z_scale_head.weights:
            w.data = np.zeros_like(w.data)
        for b in phi.z_scale_head.biases:
            b.data = np.full_like(b.data, -20.0)
        y = rng.uniform(0, 1, L)
        s1 = inf.posterior_sample(y, phi, theta, RngNoise(np.random.default_rng(1)))
        s2 = inf.posterior_sample(y, phi, theta, RngNoise(np.random.default_rng(2)))
        assert np.allclose(s1.em_matrix.data, s2.em_matrix.data, atol=1e-6)
        assert np.allclose(_latent(s1), _latent(s2), atol=1e-6)
        mean_m = np.stack(
            [dc.mlp_forward(theta.em_decoders[k], s1.z_columns[k]).data
             for k in range(P)], axis=-1)
        assert np.allclose(s1.em_matrix.data, mean_m, atol=1e-6)

    def test_abundances_on_simplex_every_draw(self, model, rng):
        theta, phi = model
        noise = RngNoise(np.random.default_rng(9))
        for _ in range(20):
            s = inf.posterior_sample(rng.uniform(0, 1, L), phi, theta, noise)
            assert np.all(s.a.data > 0)
            assert abs(s.a.data.sum() - 1.0) < 1e-9

    def test_latent_marginal_mean_matches_encoder(self, model):
        theta, phi = model
        y = np.linspace(0.1, 0.9, L)
        d = inf.encode_z(y, phi)
        draws = 10_000
        Y = np.tile(y, (draws, 1))
        s = inf.posterior_sample(Y, phi, theta, RngNoise(np.random.default_rng(3)))
        emp = _latent(s).mean(axis=0)               # (H, P)
        se = d.scale.data.max() / math.sqrt(draws)
        assert np.all(np.abs(emp - d.mean.data[:, None]) < 5 * se)


class TestPointEstimates:
    def test_sums_to_one(self, model, rng):
        theta, phi = model
        a_hat, m_hat = inf.point_estimates(rng.uniform(0, 1, (7, L)), phi, theta)
        np.testing.assert_allclose(a_hat.sum(axis=-1), 1.0, atol=1e-12)
        assert m_hat.shape == (7, L, P)

    def test_deterministic(self, model, rng):
        theta, phi = model
        y = rng.uniform(0, 1, (4, L))
        a1, m1 = inf.point_estimates(y, phi, theta)
        a2, m2 = inf.point_estimates(y, phi, theta)
        assert np.array_equal(a1, a2) and np.array_equal(m1, m2)

    def test_latent_scale_head_is_not_run(self, model, rng, monkeypatch):
        """The point estimates read only the latent mean: the scale head,
        whose output they would discard, is never evaluated, and the
        estimates keep their bytes."""
        theta, phi = model
        y = rng.uniform(0, 1, (4, L))
        want = inf.point_estimates_with_streams(y, phi, theta)
        nets = []
        forward = inf.mlp_forward

        def spy(net, *args, **kwargs):
            nets.append(net)
            return forward(net, *args, **kwargs)

        monkeypatch.setattr(inf, "mlp_forward", spy)
        got = inf.point_estimates_with_streams(y, phi, theta)
        # the pass runs over a constant view of the model, so nets are
        # told apart by their parameters' names
        names = {net.weights[0].name for net in nets}
        assert phi.z_mean_head.weights[0].name in names
        assert phi.z_scale_head.weights[0].name not in names
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_records_no_graph_for_a_trainable_model(self, model, rng,
                                                    monkeypatch):
        """Over a model of parameters, the pass makes no tensor with
        parents, leaves the parameters as they were, and keeps the
        estimates' bytes."""
        theta, phi = model
        y = rng.uniform(0, 1, (2 * inf.ROW_BLOCK + 3, L))
        want = inf.point_estimates_with_streams(y, phi, theta)
        made = []
        init = dc.Tensor.__init__

        def spy(t, *args, **kwargs):
            init(t, *args, **kwargs)
            made.append(t._parents)

        monkeypatch.setattr(dc.Tensor, "__init__", spy)
        got = inf.point_estimates_with_streams(y, phi, theta)
        assert made and not any(made)
        # the spy sees the tensors a trainable pass records
        inf.encode_z(y[:2], phi)
        assert any(made)
        monkeypatch.undo()
        params = inf.model_parameters(theta, phi)
        assert all(t.requires_grad and t.grad is None for t in params.values())
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_trained_toy_concentrates_on_pure_pixels(self):
        # tiny end-to-end fit: the posterior mean must pick the right
        # endmember (argmax only) for pure inputs
        from unmix import data as dt
        from unmix.objective import TrainConfig, train
        root = np.random.default_rng(0)
        lib = dt.synth_endmember_library(24, 2, root.spawn(1)[0])
        maps = dt.synth_abundance_maps(12, 12, 2, np.random.default_rng(1))
        cube, truth = dt.generate_dc1(maps, lib, 30.0, np.random.default_rng(2),
                                      width=12, height=12)
        refs = dt.vca(cube, 2, np.random.default_rng(3))
        ppx = dt.extract_pure_pixels(cube, refs, 20)
        sup = dt.build_supervised_set(ppx, 30, 30.0, np.random.default_rng(4))
        cfg = TrainConfig(max_epochs=20, rel_stop_tol=-1.0)
        theta, phi, _ = train(cube.pixels, sup, cfg, seed=0, lista_layers=6)
        a_hat, _ = inf.point_estimates(cube.pixels, phi, theta)
        pure = truth.abundances.max(axis=1) > 0.999
        agree = (np.argmax(a_hat[pure], axis=1)
                 == np.argmax(truth.abundances[pure], axis=1))
        # label order between the model (VCA-derived) and truth may differ
        frac = agree.mean()
        assert frac > 0.9 or frac < 0.1


class TestBlockedPass:
    """The pass runs in blocks of ROW_BLOCK rows counted from pixel 0, so
    its bytes depend only on the pixel values and their number."""

    BANDS = 24
    SIZES = [inf.ROW_BLOCK + 1, 2 * inf.ROW_BLOCK + 37]

    @pytest.fixture(scope="class")
    def model24(self):
        return inf.init_model(self.BANDS, 3, 2, 11, np.random.default_rng(8))

    def _pixels(self, n: int) -> np.ndarray:
        return np.random.default_rng(n).uniform(0.0, 1.0, (n, self.BANDS))

    @pytest.mark.parametrize("n", SIZES)
    def test_memory_layout_does_not_change_bytes(self, model24, n):
        theta, phi = model24
        y = self._pixels(n)
        ref = inf.point_estimates(y.copy(), phi, theta)
        buf = np.empty(y.size + 1)
        shifted = buf[1:].reshape(y.shape)
        shifted[...] = y
        assert shifted.ctypes.data % 16 == 8
        view = np.frombuffer(y.tobytes(), dtype=np.float64).reshape(y.shape)
        for layout in (shifted, view):
            out = inf.point_estimates(layout, phi, theta)
            assert [o.tobytes() for o in out] == [r.tobytes() for r in ref]

    @pytest.mark.parametrize("n", SIZES)
    def test_blocks_are_counted_from_pixel_zero(self, model24, n):
        theta, phi = model24
        y = self._pixels(n)
        whole = inf.point_estimates_with_streams(y, phi, theta)
        parts = [inf.point_estimates_with_streams(y[s:s + inf.ROW_BLOCK],
                                                  phi, theta)
                 for s in range(0, n, inf.ROW_BLOCK)]
        for i, out in enumerate(whole):
            joined = np.concatenate([part[i] for part in parts])
            assert out.tobytes() == joined.tobytes()
        # within one block, the reconstruction is mixing_mean of the estimates
        a_hat, m_hat, _, _, recon = parts[-1]
        assert np.array_equal(recon, mixing_mean(a_hat, m_hat, theta).data)

    def test_memory_beyond_the_outputs_is_flat_in_the_block_count(self,
                                                                  model24):
        theta, phi = model24
        inf.point_estimates_with_streams(self._pixels(3), phi, theta)
        extra = []
        for blocks in (4, 16):
            y = self._pixels(blocks * inf.ROW_BLOCK)
            tracemalloc.start()
            try:
                outs = inf.point_estimates_with_streams(y, phi, theta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - sum(o.nbytes for o in outs))
        assert abs(extra[1] - extra[0]) <= 0.1 * extra[0], extra
