"""Posterior model: latent encoder, unrolled stream, concentration, sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import nnls

from conftest import fd_param_grads, max_rel_err, one_network, zero_mlp
from unmix import diffcore as dc
from unmix import inference as inf
from unmix.distributions import GAMMA_FLOOR, RngNoise
from unmix.errors import ShapeError
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
    """The sampled codes as the rows of one (..., P, H) array."""
    return np.moveaxis(s.z.data, 0, -2)


def _collected(y, phi, theta) -> list[np.ndarray]:
    """Each of the unmixing pass's outputs over every pixel, its blocks
    joined in order."""
    blocks = [outs for _, *outs in inf.point_estimate_blocks(y, phi, theta)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


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
        assert s.z.shape == (P, H)
        assert _latent(s).shape == (P, H)

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
        M = rng.uniform(0.1, 0.9, (P, L))
        set_lista(phi, steps=None, sparse=0.0, unc=1.0)
        gram_lip = np.linalg.eigvalsh(M @ M.T)[-1]
        for t in phi.lista.log_eta_steps:
            t.data = np.array(np.log(1.0 / gram_lip))
        y = M[1]
        out = inf.lista_concentration(y, dc.constant(M), phi).data
        ref, _ = nnls(M.T, y)
        peak = out.max()
        assert np.argmax(out) == np.argmax(ref) == 1
        off = np.delete(out, 1)
        assert np.all(off <= 1e-3 * peak)

    def test_huge_shrinkage_zeroes_output(self, model, rng):
        theta, phi = model
        set_lista(phi, steps=0.05, sparse=1e6, unc=1.0)
        M = rng.uniform(0.1, 0.9, (P, L))
        y = rng.uniform(0, 1, L)
        out = inf.lista_concentration(y, dc.constant(M), phi).data
        np.testing.assert_allclose(out, 0.0)

    def test_zero_steps_fixed_point(self, model, rng):
        theta, phi = model
        set_lista(phi, steps=0.0, sparse=0.01, unc=7.0)
        M = rng.uniform(0.1, 0.9, (P, L))
        a = rng.dirichlet(np.ones(P))
        y = a @ M                       # pseudoinverse solution is >= 0
        h1 = np.linalg.pinv(M.T, rcond=1e-8) @ y
        assert np.all(h1 >= 0)
        out = inf.lista_concentration(y, dc.constant(M), phi).data
        np.testing.assert_allclose(out, 7.0 * h1, rtol=1e-9)

    def test_residual_decreases_across_layers(self, rng):
        # property: gradient steps below 2 / sigma_max(M M^T) shrink the
        # least squares residual layer by layer (shrinkage off).  The
        # comparison starts at the first projected iterate; the
        # pseudoinverse warm start is the unconstrained minimizer and may
        # sit outside the nonnegative orthant.
        for trial in range(5):
            M = rng.uniform(0.1, 0.9, (P, L))
            y = rng.uniform(0, 1, L)
            lip = np.linalg.eigvalsh(M @ M.T)[-1]
            resids = []
            for layers in range(3, 10):
                theta, phi = inf.init_model(L, P, H, lista_layers=layers,
                                            rng=np.random.default_rng(trial))
                set_lista(phi, steps=1.0 / lip, sparse=0.0, unc=1.0)
                h = inf.lista_concentration(y, dc.constant(M), phi).data
                resids.append(np.linalg.norm(h @ M - y))
            assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(resids, resids[1:]))

    def test_rank_deficient_matrix_no_error(self, model, rng):
        theta, phi = model
        M = np.zeros((P, L))
        M[0] = rng.uniform(0.1, 0.9, L)
        M[1] = M[0]                     # duplicate endmember: rank 2
        M[2] = rng.uniform(0.1, 0.9, L)
        out = inf.lista_concentration(M[0], dc.constant(M), phi).data
        assert np.all(np.isfinite(out))

    def test_band_mismatch_rejected(self, model, rng):
        _, phi = model
        M = rng.uniform(0.1, 0.9, (P, L))
        with pytest.raises(ShapeError,
                           match=f"^M has {L} bands, y has {L + 1}$"):
            inf.lista_concentration(np.ones(L + 1), dc.constant(M), phi)

    @pytest.mark.parametrize("n_layers", [1, 2, 3, 11])
    def test_one_step_size_per_shrinkage_step(self, n_layers):
        """A stream of K layers holds the K - 2 step sizes its shrinkage
        steps read, none below 3 layers, and runs at every depth."""
        _, phi = inf.init_model(L, P, H, n_layers, np.random.default_rng(0))
        n_steps = max(n_layers - 2, 0)
        assert phi.lista.n_layers == n_layers
        assert [t.name for t in phi.lista.log_eta_steps] == [
            f"inf.lista.log_eta{m}" for m in range(n_steps)]
        assert len(inf.model_parameters(phi.lista)) == n_steps + 2
        M = np.random.default_rng(1).uniform(0.1, 0.9, (P, L))
        out = inf.lista_concentration(M[0], dc.constant(M), phi)
        assert out.shape == (P,) and np.all(np.isfinite(out.data))


def _explicit_lista(y, M, phi):
    """Reference recurrence h <- relu(h - eta M (M^T h - y) - eta eta_sp)
    of the (..., P, L) M."""
    h = dc.constant(np.squeeze(np.linalg.pinv(np.swapaxes(M.data, -1, -2),
                                              rcond=1e-8)
                               @ y[..., None], axis=-1))
    y_col = dc.constant(y[..., None])
    eta_sp = dc.exp(phi.lista.log_eta_sparse)
    for log_eta in phi.lista.log_eta_steps:
        eta = dc.exp(log_eta)
        resid = dc.matmul(M.transpose(), h.reshape(h.shape + (1,))) - y_col
        grad = dc.matmul(M, resid).reshape(h.shape)
        h = dc.relu(h - eta * grad - eta_sp * eta)
    return dc.exp(phi.lista.log_eta_unc) * h


class TestListaGramForm:
    """The Gram-form layers against the explicit residual recurrence."""

    def _case(self, rng, batch, rank_deficient=False):
        M = rng.uniform(0.1, 0.9, batch + (P, L))
        if rank_deficient:
            M[..., 1, :] = M[..., 0, :]
        a = rng.dirichlet(np.ones(P), size=batch or None)
        y = np.einsum("...pl,...p->...l", M, a) + 0.05 * rng.standard_normal(
            batch + (L,))
        ref_em = M.reshape(-1, P, L).mean(axis=0)
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
            params = {"M": m_param, **inf.model_parameters(phi.lista)}
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


class TestListaColumnForm:
    """h stays a (..., P, 1) column through the layers."""

    @staticmethod
    def _graph(rng, n_layers: int) -> list:
        _, phi = inf.init_model(L, P, H, lista_layers=n_layers,
                                rng=np.random.default_rng(0))
        M = dc.parameter(rng.uniform(0.1, 0.9, (4, P, L)), "M")
        return dc._toposort(inf.lista_concentration(
            rng.uniform(0.0, 1.0, (4, L)), M, phi))

    def test_one_reshape_for_any_depth(self, rng):
        depths = (3, 4, 5, 8)
        graphs = [self._graph(rng, n) for n in depths]
        for nodes in graphs:
            reshapes = [t for t in nodes if t._vjp is not None and
                        t._vjp.__qualname__.startswith("Tensor.reshape.")]
            assert len(reshapes) == 1
        per_layer = len(graphs[1]) - len(graphs[0])
        assert per_layer > 0
        for n, nodes in zip(depths, graphs):
            assert len(nodes) == len(graphs[0]) + per_layer * (n - 3)


def _gram_and_b(M, y):
    """The G = M M^T and b = M y that ``lista_concentration`` forms."""
    return M @ np.swapaxes(M, -1, -2), M @ y[..., None]


def _pinv_solution(M, y):
    """pinv(M^T) y at the singular-value cut that matches the warm start's."""
    rcond = math.sqrt(inf.WARM_START_CUT)
    return np.linalg.pinv(np.swapaxes(M, -1, -2), rcond=rcond) @ y[..., None]


def _with_rows(M, rows):
    """M with one endmember row a copy or a multiple of another, or zero."""
    if rows == "duplicate":
        M[..., 2, :] = M[..., 0, :]
    elif rows == "zero":
        M[..., 1, :] = 0.0
    elif rows == "scaled":
        M[..., 2, :] = 2.5 * M[..., 1, :]
    return M


class TestWarmStart:
    """The warm start solved from (G, b) against pinv(M^T) @ y."""

    @pytest.mark.parametrize("batch,column", [
        ((), None), ((6,), None), ((2, 3), None),
        ((6,), "duplicate"), ((6,), "zero"), ((6,), "scaled")])
    def test_matches_pseudoinverse_solution(self, rng, batch, column):
        M = _with_rows(rng.uniform(0.1, 0.9, batch + (P, L)), column)
        y = rng.uniform(0.0, 1.0, batch + (L,))
        ref = _pinv_solution(M, y)
        got = inf._least_squares_start(*_gram_and_b(M, y))
        assert got.shape == batch + (P, 1)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("batch,n_em,bands", [
        (64, 5, 224), (512, 5, 224), (16, 3, 64)])
    def test_matches_at_the_bench_shapes(self, batch, n_em, bands):
        r = np.random.default_rng(batch + bands)
        M = r.uniform(0.1, 0.9, (batch, n_em, bands))
        y = r.uniform(0.0, 1.0, (batch, bands))
        ref = _pinv_solution(M, y)
        got = inf._least_squares_start(*_gram_and_b(M, y))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("bands", [16, 64, 224])
    @pytest.mark.parametrize("rows", ["duplicate", "zero", "scaled"])
    def test_rank_deficient_m_gives_the_minimum_norm_solution(self, rows,
                                                              bands):
        # eigh leaves G's null eigenvalues near 1e-16 of the largest; a cut
        # there keeps them and misses pinv by O(1) on these cases
        for seed in range(100):
            r = np.random.default_rng(seed)
            M = _with_rows(r.uniform(0.1, 0.9, (5, bands)), rows)
            y = r.uniform(0.0, 1.0, bands)
            ref = _pinv_solution(M, y)
            got = inf._least_squares_start(*_gram_and_b(M, y))
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), seed

    def test_pin_replays_the_first_warm_start(self, model, rng,
                                              pinned_warm_starts):
        theta, phi = model
        M = rng.uniform(0.1, 0.9, (4, P, L))
        y = rng.uniform(0.0, 1.0, (4, L))
        with pinned_warm_starts() as pin:
            first = inf.lista_concentration(y, dc.constant(M), phi).data
            pin.rewind()
            replay = inf.lista_concentration(y, dc.constant(M * 1.5), phi).data
        moved = inf.lista_concentration(y, dc.constant(M * 1.5), phi).data
        assert len(pin.store) == 1
        assert np.array_equal(pin.store[0],
                              inf._least_squares_start(*_gram_and_b(M, y)))
        assert not np.array_equal(replay, moved)
        assert not np.array_equal(replay, first)


class TestAbundanceConcentration:
    def test_single_stream_when_nonlinear_zeroed(self, model, rng):
        theta, phi = model
        zero_mlp(phi.nlin_encoder)
        M = rng.uniform(0.1, 0.9, (P, L))
        y = rng.uniform(0, 1, L)
        lin = inf.lista_concentration(y, dc.constant(M), phi).data
        conc = inf.abundance_concentration(y, dc.constant(M), phi)
        np.testing.assert_allclose(conc.data,
                                   np.maximum(lin, 0) + GAMMA_FLOOR)

    def test_floor_always_respected(self, model, rng):
        theta, phi = model
        for _ in range(20):
            M = rng.uniform(0.1, 0.9, (P, L))
            y = rng.uniform(-1, 2, L)
            conc = inf.abundance_concentration(y, dc.constant(M), phi)
            assert np.all(conc.data >= GAMMA_FLOOR)

    def test_disentangled_from_latent_encoder(self, model, rng):
        # abundances see Z only through M: the latent nets get no gradient
        theta, phi = model
        M = rng.uniform(0.1, 0.9, (P, L))
        y = rng.uniform(0, 1, L)
        conc = inf.abundance_concentration(y, dc.constant(M), phi)
        z_params = inf.model_parameters(phi.z_trunk, phi.z_mean_head,
                                        phi.z_scale_head)
        grads = dc.backward(conc.sum(), z_params)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())


class TestPosteriorSample:
    def test_draws_follow_the_per_endmember_order(self, model, rng):
        """The code noise, then endmember k's noise for k = 0..P-1: one
        (P, ..., L) draw is P successive (..., L) draws."""
        theta, phi = model
        y = rng.uniform(0, 1, (4, L))
        s = inf.posterior_sample(y, phi, theta,
                                 RngNoise(np.random.default_rng(5)))
        assert s.em_matrix.shape == (4, P, L)
        assert s.em_matrix.data.flags.c_contiguous
        draws = np.random.default_rng(5)
        d = inf.encode_z(y, phi)
        xi_z = draws.standard_normal((4, P, H))
        for k in range(P):
            z_k = d.mean.data + d.scale.data * xi_z[:, k]
            assert z_k.tobytes() == s.z.data[k].tobytes()
            m_k = (dc.mlp_forward(one_network(theta.em_decoder, k), z_k).data
                   + theta.em_scale().data[k]
                   * draws.standard_normal((4, L)))
            assert m_k.tobytes() == np.ascontiguousarray(
                s.em_matrix.data[:, k]).tobytes()

    def test_collapsed_scales_near_deterministic(self, model, rng):
        theta, phi = model
        theta.em_log_scale.data[...] = np.log(1e-9)
        for w in phi.z_scale_head.weights:
            w.data = np.zeros_like(w.data)
        for b in phi.z_scale_head.biases:
            b.data = np.full_like(b.data, -20.0)
        y = rng.uniform(0, 1, L)
        s1 = inf.posterior_sample(y, phi, theta, RngNoise(np.random.default_rng(1)))
        s2 = inf.posterior_sample(y, phi, theta, RngNoise(np.random.default_rng(2)))
        assert np.allclose(s1.em_matrix.data, s2.em_matrix.data, atol=1e-6)
        assert np.allclose(_latent(s1), _latent(s2), atol=1e-6)
        mean_m = np.moveaxis(dc.mlp_forward(theta.em_decoder, s1.z).data, 0, -2)
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
        emp = _latent(s).mean(axis=0)               # (P, H)
        se = d.scale.data.max() / math.sqrt(draws)
        assert np.all(np.abs(emp - d.mean.data[None, :]) < 5 * se)


class TestPointEstimates:
    def test_sums_to_one(self, model, rng):
        theta, phi = model
        a_hat, m_hat = inf.point_estimates(rng.uniform(0, 1, (7, L)), phi, theta)
        np.testing.assert_allclose(a_hat.sum(axis=-1), 1.0, atol=1e-12)
        assert m_hat.shape == (7, P, L)

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
        want = _collected(y, phi, theta)
        nets = []
        forward = inf.mlp_forward

        def spy(net, *args, **kwargs):
            nets.append(net)
            return forward(net, *args, **kwargs)

        monkeypatch.setattr(inf, "mlp_forward", spy)
        got = _collected(y, phi, theta)
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
        want = _collected(y, phi, theta)
        made = []
        init = dc.Tensor.__init__

        def spy(t, *args, **kwargs):
            init(t, *args, **kwargs)
            made.append(t._parents)

        monkeypatch.setattr(dc.Tensor, "__init__", spy)
        got = _collected(y, phi, theta)
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
        from test_data import dc1_scene
        from unmix import data as dt
        from unmix.objective import TrainConfig, train
        root = np.random.default_rng(0)
        lib = dt.synth_endmember_library(24, 2, root.spawn(1)[0])
        maps = dt.synth_abundance_maps(12, 12, 2, np.random.default_rng(1))
        pixels = dc1_scene(maps, lib, 30.0, np.random.default_rng(2))
        refs = dt.vca(pixels, 2, np.random.default_rng(3))
        ppx = dt.extract_pure_pixels(pixels, refs, 20)
        sup = dt.build_supervised_set(ppx, 30, 30.0, np.random.default_rng(4))
        cfg = TrainConfig(max_epochs=20, rel_stop_tol=-1.0)
        theta, phi, _ = train(pixels, sup, cfg, seed=0,
                              latent_dim=2, lista_layers=6)
        a_hat, _ = inf.point_estimates(pixels, phi, theta)
        pure = maps.max(axis=1) > 0.999
        agree = (np.argmax(a_hat[pure], axis=1)
                 == np.argmax(maps[pure], axis=1))
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
        whole = _collected(y, phi, theta)
        parts = [_collected(y[s:s + inf.ROW_BLOCK], phi, theta)
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
        inf.point_estimates(self._pixels(3), phi, theta)
        extra = []
        for blocks in (4, 16):
            y = self._pixels(blocks * inf.ROW_BLOCK)
            tracemalloc.start()
            try:
                outs = inf.point_estimates(y, phi, theta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - sum(o.nbytes for o in outs))
        assert abs(extra[1] - extra[0]) <= 0.1 * extra[0], extra


class _RequestSpy:
    """A fresh-draw value source that records, in order, the name of every
    parameter a model constructor requests from it."""

    def __init__(self, rng):
        self.drawn = dc.param_values(rng)
        self.names = []

    def weights(self, name, shapes, bank=0):
        made = self.drawn.weights(name, shapes, bank)
        self.names += [t.name for t in made]
        return made

    def value(self, name, initial):
        self.names.append(name)
        return self.drawn.value(name, initial)


class TestModelParameters:
    """``model_parameters`` walks the parameter dataclasses' fields: every
    parameter a constructor builds is listed, once, in the order built."""

    @pytest.mark.parametrize("lista_layers", [1, 2, 11])
    @pytest.mark.parametrize("n_endmembers", [2, 5])
    @pytest.mark.parametrize("n_bands", [16, 224])
    def test_lists_every_requested_parameter_in_order(
            self, n_bands, n_endmembers, lista_layers):
        spy = _RequestSpy(np.random.default_rng(0))
        theta, phi = inf.init_model(n_bands, n_endmembers, 3, lista_layers,
                                    spy)
        assert spy.names == list(inf.model_parameters(theta, phi))

    def test_bank_lists_weights_then_biases(self):
        widths = [2, 5, 4, 6]
        net = dc.MlpParams.create(widths, ["relu", "relu", "sigmoid"],
                                  np.random.default_rng(0), "bank", bank=3)
        params = inf.model_parameters(net)
        assert list(params) == ["bank.w0", "bank.w1", "bank.w2",
                                "bank.b0", "bank.b1", "bank.b2"]
        assert list(params.values()) == [*net.weights, *net.biases]
