"""Tensor core: forward ops, reverse accumulation, Adam, schedule, checkpoints."""

import json

import numpy as np
import pytest

from conftest import fd_param_grads, max_rel_err, make_mlp, zero_mlp
from unmix import container as ct
from unmix import diffcore as dc
from unmix.errors import BundleError, ContractError, ShapeError, TrainingError


# leading axes of an MLP input: a single vector, a batch, a batch of draws
LEADS = [(), (4,), (2, 4)]
LEAD_IDS = ["1d", "2d", "3d"]


class TestMlpForward:
    def test_identity_linear_layer(self):
        net = make_mlp([2, 2], ["linear"])
        net.weights[0].data = np.eye(2)
        net.biases[0].data = np.zeros(2)
        out = dc.mlp_forward(net, np.array([1.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_relu_clamps_negatives(self):
        net = make_mlp([2, 2], ["relu"])
        net.weights[0].data = np.eye(2)
        net.biases[0].data = np.zeros(2)
        out = dc.mlp_forward(net, np.array([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_sigmoid_of_zero_is_half(self, rng):
        net = make_mlp([3, 4], ["sigmoid"])
        net.weights[0].data = np.zeros((4, 3))
        net.biases[0].data = np.zeros(4)
        out = dc.mlp_forward(net, rng.standard_normal(3))
        np.testing.assert_allclose(out.data, 0.5)

    def test_shape_mismatch_raises(self):
        net = make_mlp([3, 2], ["linear"])
        with pytest.raises(ShapeError):
            dc.mlp_forward(net, np.zeros(4))

    def test_forward_deterministic(self, rng):
        net = make_mlp([3, 5, 2], ["relu", "linear"], seed=7)
        x = rng.standard_normal(3)
        a = dc.mlp_forward(net, x).data
        b = dc.mlp_forward(net, x).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
    def test_batched_input_matches_per_sample(self, rng, lead):
        net = make_mlp([3, 5, 2], ["relu", "linear"], seed=3)
        X = rng.standard_normal(lead + (3,))
        batched = dc.mlp_forward(net, X).data
        rows = np.stack([dc.mlp_forward(net, x[None, :]).data[0]
                         for x in X.reshape(-1, 3)])
        assert batched.shape == lead + (2,)
        np.testing.assert_allclose(batched, rows.reshape(lead + (2,)),
                                   rtol=1e-12, atol=1e-12)

    def test_leading_axes_fold_into_rows(self, rng):
        net = make_mlp([3, 5, 4, 2], ["relu", "sigmoid", "linear"], seed=8)
        x = dc.parameter(rng.standard_normal((2, 4, 3)), "x")
        out = dc.mlp_forward(net, x)
        assert out.shape == (2, 4, 2)
        inner = [t for t in dc._toposort(out) if t is not out and t is not x]
        assert inner and all(t.data.ndim <= 2 for t in inner)


ACTS = ["relu", "sigmoid", "linear"]
_CHAIN_ACTS = {"relu": dc.relu, "sigmoid": dc.sigmoid, "linear": lambda t: t}


def _chain(x, w, b, act):
    """The transpose, matmul, add and activation nodes ``dense`` fuses."""
    return _CHAIN_ACTS[act](dc.matmul(x, w.transpose()) + b)


class TestDense:
    @pytest.mark.parametrize("act", ACTS)
    def test_matches_finite_differences(self, rng, act):
        params = {"x": dc.parameter(rng.standard_normal((5, 4)), "x"),
                  "w": dc.parameter(rng.standard_normal((3, 4)), "w"),
                  "b": dc.parameter(rng.standard_normal(3), "b")}

        def loss_t():
            out = dc.dense(params["x"], params["w"], params["b"], act)
            return (out * out).sum() + _sin(out).sum()

        grads = dc.backward(loss_t(), params)
        fd = fd_param_grads(lambda: loss_t().item(), params)
        assert max_rel_err(grads, fd) < 1e-6

    @pytest.mark.parametrize("act", ACTS)
    def test_data_input_matches_finite_differences(self, rng, act):
        """With a constant input the VJP skips the input's cotangent; the
        weight and bias gradients are those of a parameter input, bit for
        bit."""
        x = rng.standard_normal((5, 4))
        params = {"w": dc.parameter(rng.standard_normal((3, 4)), "w"),
                  "b": dc.parameter(rng.standard_normal(3), "b")}

        def loss_t(x_t):
            out = dc.dense(x_t, params["w"], params["b"], act)
            return (out * out).sum() + _sin(out).sum()

        data = dc.constant(x)
        grads = dc.backward(loss_t(data), params)
        assert data.grad is None
        fd = fd_param_grads(lambda: loss_t(data).item(), params)
        assert max_rel_err(grads, fd) < 1e-6
        grads = {k: g.copy() for k, g in grads.items()}
        full = dc.backward(loss_t(dc.parameter(x, "x")), params)
        for name in params:
            assert grads[name].tobytes() == full[name].tobytes()

    @pytest.mark.parametrize("act", ACTS)
    def test_bitwise_equal_to_four_node_chain(self, rng, act):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([800.0, -800.0, 0.0, -0.0, tiny, -tiny, 1e-310,
                            -1e-310, 36.7, -36.7, 745.2, -745.2])
        # an identity layer passes the special values through as
        # pre-activations; a random layer mixes them with the others
        x = np.concatenate([rng.uniform(-800.0, 800.0, (20, 12)),
                            rng.standard_normal((20, 12)), np.diag(special)])
        for w, b in ((np.eye(12), np.zeros(12)),
                     (rng.standard_normal((7, 12)), rng.standard_normal(7))):
            weights = rng.standard_normal((x.shape[0], w.shape[0]))
            outs, grads = [], []
            for fn in (dc.dense, _chain):
                params = {"x": dc.parameter(x, "x"), "w": dc.parameter(w, "w"),
                          "b": dc.parameter(b, "b")}
                out = fn(params["x"], params["w"], params["b"], act)
                grads.append(dc.backward((out * weights).sum(), params))
                outs.append(out.data)
            assert outs[0].tobytes() == outs[1].tobytes()
            for name in ("x", "w", "b"):
                assert grads[0][name].shape == grads[1][name].shape
                assert grads[0][name].tobytes() == grads[1][name].tobytes()

    def test_one_graph_node_per_layer(self, rng):
        net = make_mlp([3, 5, 4, 2], ["relu", "sigmoid", "linear"], seed=2)
        x = dc.constant(rng.standard_normal((6, 3)))
        out = dc.mlp_forward(net, x)
        inner = [t for t in dc._toposort(out) if t._parents]
        assert len(inner) == 3
        leaves = {id(t) for t in (x, *net.weights, *net.biases)}
        assert {id(t) for t in dc._toposort(out) if not t._parents} == leaves

    def test_rejects_bad_input_and_activation(self):
        w, b = dc.constant(np.ones((2, 3))), dc.constant(np.zeros(2))
        with pytest.raises(ShapeError):
            dc.dense(dc.constant(np.ones(3)), w, b, "relu")
        with pytest.raises(ShapeError):
            dc.dense(dc.constant(np.ones((4, 2))), w, b, "relu")
        with pytest.raises(ShapeError):
            dc.dense(dc.constant(np.ones((4, 3))), w, b, "tanh")


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = dc.parameter(np.array([3.0, 4.0]), "x")
        loss = (x * x).sum()
        grads = dc.backward(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], [6.0, 8.0])

    @pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
    def test_mlp_matches_finite_differences(self, rng, lead):
        net = make_mlp([4, 6, 3], ["relu", "linear"], seed=11)
        x = rng.standard_normal(lead + (4,))
        params = net.named_parameters()

        def loss_fn():
            out = dc.mlp_forward(net, x)
            return float((out.data ** 2).sum() + np.sin(out.data).sum())

        out = dc.mlp_forward(net, x)
        loss = (out * out).sum() + _sin(out).sum()
        grads = dc.backward(loss, params)
        assert max_rel_err(grads, fd_param_grads(loss_fn, params)) < 1e-4

    def test_unused_parameter_gets_exact_zero(self):
        x = dc.parameter(np.array([1.0, 2.0]), "x")
        unused = dc.parameter(np.array([[5.0]]), "unused")
        loss = (x * x).sum()
        grads = dc.backward(loss, {"x": x, "unused": unused})
        assert np.array_equal(grads["unused"], np.zeros((1, 1)))

    def test_non_scalar_loss_raises(self):
        x = dc.parameter(np.ones(3), "x")
        with pytest.raises(ContractError):
            dc.backward(x * 2.0, {"x": x})

    def test_batch_sum_equals_sum_of_per_sample_grads(self, rng):
        net = make_mlp([3, 4, 1], ["relu", "linear"], seed=5)
        X = rng.standard_normal((4, 3))
        params = net.named_parameters()
        batch = dc.backward(dc.mlp_forward(net, X).sum(), params)
        acc = {k: np.zeros_like(v) for k, v in batch.items()}
        for x in X:
            g = dc.backward(dc.mlp_forward(net, x).sum(), params)
            for k in acc:
                acc[k] += g[k]
        assert max_rel_err(batch, acc) < 1e-12

    def test_3d_input_grads_equal_sum_of_2d_slice_grads(self, rng):
        net = make_mlp([3, 5, 4], ["relu", "sigmoid"], seed=6)
        X = rng.standard_normal((3, 4, 3))
        params = net.named_parameters()

        def loss(x):
            out = dc.mlp_forward(net, x)
            return (out * out).sum()
        folded = dc.backward(loss(X), params)
        acc = {k: np.zeros_like(v) for k, v in folded.items()}
        for x in X:
            for k, g in dc.backward(loss(x), params).items():
                acc[k] += g
        for k in acc:
            assert np.max(np.abs(folded[k] - acc[k])) \
                <= 1e-12 * np.max(np.abs(acc[k]))

    def test_basic_indexing_matches_finite_differences(self, rng):
        x = dc.parameter(rng.standard_normal((3, 4, 5)), "x")

        def loss_t():
            # overlapping picks of one input, so the scatters accumulate
            return (_sin(x[..., 1]).sum() + (x[1:, ::2, 3] ** 2).sum()
                    + x[0, 2, 1] * 3.0 + (x[2, :3] * x[..., 0, :]).sum())

        grads = dc.backward(loss_t(), {"x": x})
        assert max_rel_err(grads, fd_param_grads(lambda: loss_t().item(),
                                                 {"x": x})) < 1e-6
        picked = x[..., 1]
        assert np.array_equal(picked.data, x.data[..., 1])
        for bad in (True, np.array([0, 1]), None, 1.5):
            with pytest.raises(ContractError):
                x[bad]

    def test_shared_operand_accumulates(self):
        x = dc.parameter(np.array([2.0]), "x")
        loss = (x * x + x * 3.0).sum()
        grads = dc.backward(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], [7.0])

    @pytest.mark.parametrize("packed", [False, True], ids=["own", "arena"])
    def test_only_leaves_keep_grad(self, rng, packed):
        net = make_mlp([3, 4, 2], ["relu", "sigmoid"], seed=3)
        params = net.named_parameters()
        if packed:
            dc.AdamState.create(params)
        x = dc.constant(rng.standard_normal((5, 3)))
        h = dc.mlp_forward(net, x)
        loss = (h * h).sum() + h.sum()
        grads = dc.backward(loss, params)
        order = dc._toposort(loss)
        assert all(n.grad is None for n in order if n._vjp is not None)
        leaves = [n for n in order if n._vjp is None]
        assert len(leaves) == len(params) + 1
        assert x.grad is None
        fd = fd_param_grads(
            lambda: float(((h2 := dc.mlp_forward(net, x).data) ** 2).sum()
                          + h2.sum()), params)
        assert max_rel_err(grads, fd) < 1e-5
        for name, t in params.items():
            assert t.grad is grads[name]

    def test_arena_gradients_bitwise_equal_own_buffers(self):
        # a leaf reached three times: copy, then two in-place adds in the
        # order the fresh sum used
        def run(packed):
            net = make_mlp([3, 4, 2], ["relu", "linear"], seed=9)
            params = net.named_parameters()
            state = dc.AdamState.create(params) if packed else None
            x = dc.constant(np.random.default_rng(5).standard_normal((6, 3)))
            w = net.weights[1]
            loss = ((dc.mlp_forward(net, x) * 1.7).sum() + dc.l2norm(w)
                    + (w * w).sum() * 0.3)
            return dc.backward(loss, params), state

        own, _ = run(False)
        arena, state = run(True)
        for name in own:
            assert arena[name].tobytes() == own[name].tobytes(), name
            assert arena[name] is state.arena.grads[name]

    @pytest.mark.parametrize("packed", [False, True], ids=["own", "arena"])
    def test_touched_then_untouched_reads_exact_zeros(self, packed):
        a = dc.parameter(np.array([1.0, 2.0]), "a")
        b = dc.parameter(np.array([[3.0, -1.0]]), "b")
        params = {"a": a, "b": b}
        if packed:
            dc.AdamState.create(params)
        first = dc.backward((a * b).sum(), params)
        assert np.array_equal(first["b"], [[1.0, 2.0]])
        second = dc.backward((a * a).sum(), params)
        assert np.array_equal(second["a"], [2.0, 4.0])
        assert np.array_equal(second["b"], np.zeros((1, 2)))
        assert b.grad is None or not b.grad.any()

    def test_l2norm_gradient_and_zero_subgradient(self, rng):
        w = dc.parameter(rng.standard_normal((3, 2)), "w")
        grads = dc.backward(dc.l2norm(w), {"w": w})
        np.testing.assert_allclose(grads["w"],
                                   w.data / np.linalg.norm(w.data), rtol=1e-12)
        z = dc.parameter(np.zeros(4), "z")
        grads = dc.backward(dc.l2norm(z), {"z": z})
        assert np.array_equal(grads["z"], np.zeros(4))


def _sin(t):
    return dc.Tensor(np.sin(t.data), (t,), lambda g: (g * np.cos(t.data),))


def _every_op(x: dc.Tensor, net: dc.MlpParams) -> list[dc.Tensor]:
    """One tensor from each differentiable op, chained off ``x`` (4, 3)."""
    h = dc.mlp_forward(net, x)
    return [h, x + 1.5, x * 2.0, -x, x - 0.5,
            1.0 - x, x / 3.0, 2.0 / (x * x + 1.0), (x * x) ** 1.5,
            x.reshape(3, 4), x.transpose(), x.sum(axis=0), x.mean(),
            dc.relu(x), dc.sigmoid(x), dc.exp(x), dc.log(x * x + 1.0),
            dc.lgamma(x * x + 0.5), dc.clip(x, -0.2, 0.3), dc.l2norm(x),
            dc.matmul(x, x.transpose()), dc.concat([x, h], axis=-1),
            dc.stack_last([x, x * 2.0]), dc.logsumexp(x, axis=-1),
            x[1:, 2]] + [dc.dense(x, net.weights[0], net.biases[0], act)
                         for act in ACTS]


def _constant_net(net: dc.MlpParams) -> dc.MlpParams:
    """The same network over the same arrays, as constants."""
    arrays = {n: t.data for n, t in net.named_parameters().items()}
    return dc.MlpParams.create(net.widths, net.activations,
                               dc.StoredParams(arrays), "net")


class TestRequiresGrad:
    """A tensor needs a gradient if and only if a parameter feeds it."""

    @pytest.fixture
    def case(self, rng):
        net = make_mlp([3, 5, 2], ["relu", "sigmoid"], seed=4)
        return rng.standard_normal((4, 3)), net

    def test_ops_over_constants_record_nothing(self, case):
        x, net = case
        recorded = _every_op(dc.parameter(x, "x"), net)
        plain = _every_op(dc.constant(x), _constant_net(net))
        assert len(recorded) == len(plain)
        for r, p in zip(recorded, plain):
            assert r.requires_grad and r._parents and r._vjp is not None
            assert not p.requires_grad and p._parents == () and p._vjp is None
            assert r.data.shape == p.data.shape
            assert r.data.tobytes() == p.data.tobytes()

    def test_one_parameter_parent_is_enough(self, case):
        x, net = case
        c = dc.constant(x)
        h = dc.dense(c, net.weights[0], net.biases[0], "relu")
        assert h.requires_grad and h._parents[0] is c
        assert not (c * 2.0).requires_grad
        assert (c + dc.parameter(np.ones(3), "b")).requires_grad

    def test_leaves(self, rng):
        assert dc.parameter(np.ones(2), "p").requires_grad
        assert not dc.constant(np.ones(2)).requires_grad
        stored = dc.StoredParams({"s": rng.standard_normal(3)})
        t = stored.value("s", np.zeros(3))
        assert not t.requires_grad
        dc.AdamState.create({"s": t})
        assert t.requires_grad and t._grad_view is not None

    def test_constant_loss_gives_zeros_and_no_grad(self):
        c = dc.constant(np.array([1.0, 2.0]))
        p = dc.parameter(np.array([3.0]), "p")
        loss = (c * c).sum()
        grads = dc.backward(loss, {"p": p})
        assert np.array_equal(grads["p"], [0.0])
        assert loss.grad is None and c.grad is None


class TestSigmoid:
    def test_bitwise_equal_to_three_exp_form(self, rng):
        tiny = np.finfo(np.float64).smallest_subnormal
        d = np.concatenate([
            rng.uniform(-800.0, 800.0, 10_000),
            [800.0, -800.0, 0.0, -0.0, tiny, -tiny, 1e-310, -1e-310,
             36.7, -36.7, 745.2, -745.2]])
        old = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                       np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
        new = dc.sigmoid(dc.constant(d)).data
        assert new.tobytes() == old.tobytes()


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = dc.parameter(np.array([1.0, -2.0]), "p")
        state = dc.AdamState.create({"p": p})
        dc.adam_step({"p": p}, {"p": np.zeros(2)}, state, lr=0.01)
        np.testing.assert_allclose(p.data, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        p = dc.parameter(np.array(0.0), "p")
        state = dc.AdamState.create({"p": p})
        dc.adam_step({"p": p}, {"p": np.array(1.0)}, state, lr=0.001)
        assert abs(abs(float(p.data)) - 0.001) < 1e-6

    def test_sign_flips_shrink_steps(self):
        # oracle: direct evaluation of the Adam recurrences
        def two_steps(g1, g2, b1=0.9, b2=0.999, eps=1e-8, lr=0.001):
            m = v = 0.0
            vals = []
            for t, g in enumerate((g1, g2), start=1):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                vals.append(lr * (m / (1 - b1 ** t))
                            / (np.sqrt(v / (1 - b2 ** t)) + eps))
            return vals

        p = dc.parameter(np.array(0.0), "p")
        state = dc.AdamState.create({"p": p})
        dc.adam_step({"p": p}, {"p": np.array(1.0)}, state, lr=0.001)
        x1 = float(p.data)
        dc.adam_step({"p": p}, {"p": np.array(-1.0)}, state, lr=0.001)
        flip_second = abs(float(p.data) - x1)
        const_second = abs(two_steps(1.0, 1.0)[1])
        assert flip_second < const_second
        np.testing.assert_allclose(flip_second, abs(two_steps(1.0, -1.0)[1]),
                                   rtol=1e-12)

    def test_non_finite_gradient_changes_nothing(self, rng):
        params = {n: dc.parameter(rng.standard_normal(shape), n)
                  for n, shape in (("a", (3, 2)), ("b", ()), ("c", (4,)))}
        state = dc.AdamState.create(params)
        grads = {n: rng.standard_normal(t.data.shape) for n, t in params.items()}
        dc.adam_step(params, grads, state, 0.01)
        before = ({n: t.data.copy() for n, t in params.items()},
                  {n: a.copy() for n, a in state.m.items()},
                  {n: a.copy() for n, a in state.v.items()}, state.step)
        grads["b"] = np.array(np.inf)
        with pytest.raises(TrainingError, match="parameter=b"):
            dc.adam_step(params, grads, state, 0.01)
        after = ({n: t.data for n, t in params.items()}, state.m, state.v,
                 state.step)
        for old, new in zip(before[:3], after[:3]):
            for n in old:
                assert old[n].tobytes() == new[n].tobytes(), n
        assert after[3] == before[3] == 1

    def test_in_place_steps_bitwise_equal_allocating_form(self, rng):
        def reference(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
            # the allocating update written as plain expressions
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n in params:
                g = grads[n]
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                params[n] = params[n] - lr * (m[n] / bc1) / (
                    np.sqrt(v[n] / bc2) + eps)

        block = dc._ADAM_BLOCK
        # "edge" (0-d) starts the second block; "big" spans more than one
        shapes = {"w": (5, 4), "b": (5,), "s": (), "pad": (block - 26,),
                  "edge": (), "big": (block + 37,), "tail": ()}
        params = {n: dc.parameter(rng.standard_normal(s), n)
                  for n, s in shapes.items()}
        state = dc.AdamState.create(params)
        start = state.arena.values.__array_interface__["data"][0]
        assert params["edge"].data.__array_interface__["data"][0] \
            == start + 8 * block
        assert state.arena.size > 2 * block
        buffers = {n: t.data for n, t in params.items()}
        ref = {n: t.data.copy() for n, t in params.items()}
        ref_m = {n: np.zeros(s) for n, s in shapes.items()}
        ref_v = {n: np.zeros(s) for n, s in shapes.items()}
        for t in range(1, 5):
            grads = {n: rng.standard_normal(s) * 10.0 ** rng.integers(-3, 3)
                     for n, s in shapes.items()}
            dc.adam_step(params, grads, state, 0.003)
            reference(ref, grads, ref_m, ref_v, t, 0.003)
            for n in shapes:
                assert params[n].data.tobytes() == ref[n].tobytes(), n
                assert state.m[n].tobytes() == ref_m[n].tobytes(), n
                assert state.v[n].tobytes() == ref_v[n].tobytes(), n
        assert all(params[n].data is buffers[n] for n in shapes)

    def test_non_finite_gradient_names_first_in_arena_order(self, rng):
        params = {n: dc.parameter(rng.standard_normal(4), n)
                  for n in ("a", "b", "c")}
        state = dc.AdamState.create(params)
        grads = {n: np.ones(4) for n in params}
        grads["c"][1] = np.nan
        grads["b"][3] = -np.inf
        with pytest.raises(TrainingError, match="parameter=b"):
            dc.adam_step(params, grads, state, 0.01)
        assert state.step == 0 and not state.m_flat.any()

    def test_rejects_parameters_outside_the_arena(self):
        p = dc.parameter(np.ones(3), "p")
        state = dc.AdamState.create({"p": p})
        p.data = np.ones(3)
        with pytest.raises(ContractError, match="p is not packed"):
            dc.adam_step({"p": p}, {"p": np.ones(3)}, state, 0.01)

    def test_non_finite_gradient_names_parameter(self):
        p = dc.parameter(np.array(0.0), "gen.obs_log_scale")
        state = dc.AdamState.create({"gen.obs_log_scale": p})
        with pytest.raises(TrainingError, match="gen.obs_log_scale"):
            dc.adam_step({"gen.obs_log_scale": p},
                         {"gen.obs_log_scale": np.array(np.nan)}, state, 0.001)


class TestHelpersOnPackedParameters:
    """The test helpers write values in place, so packing survives them."""

    @staticmethod
    def _params():
        r = np.random.default_rng(5)
        return {"w": dc.parameter(r.standard_normal((3, 2)), "w"),
                "b": dc.parameter(r.standard_normal(2), "b"),
                "s": dc.parameter(np.array(0.7), "s")}

    def test_fd_param_grads_matches_unpacked_copies(self):
        x = np.random.default_rng(6).standard_normal((4, 3))

        def loss(params):
            def fn():
                w, b, s = (params[n].data for n in ("w", "b", "s"))
                return float(np.sum(np.tanh(x @ w + b) * s ** 2))
            return fn

        plain, packed = self._params(), self._params()
        state = dc.AdamState.create(packed)
        ref = fd_param_grads(loss(plain), plain)
        got = fd_param_grads(loss(packed), packed)
        for name, t in packed.items():
            assert t.data is state.arena.params[name]
            assert np.array_equal(t.data, plain[name].data)
            assert np.array_equal(got[name], ref[name])

    def test_zero_mlp_keeps_arena_views(self):
        net = make_mlp([3, 4, 2], ["relu", "linear"], seed=2)
        params = net.named_parameters()
        state = dc.AdamState.create(params)
        zero_mlp(net)
        for name, t in params.items():
            assert t.data is state.arena.params[name]
        assert not state.arena.values.any()


class TestLrSchedule:
    def test_epoch_zero(self):
        assert dc.lr_schedule(0) == 0.001

    def test_epoch_one(self):
        assert abs(dc.lr_schedule(1) - 0.0009) < 1e-15

    def test_frozen_after_epoch_ten(self):
        assert dc.lr_schedule(15) == dc.lr_schedule(10)
        assert abs(dc.lr_schedule(15) - 0.001 * 0.9 ** 10) < 1e-12

    def test_negative_epoch_rejected(self):
        with pytest.raises(ContractError):
            dc.lr_schedule(-1)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path, rng):
        params = {"a.w": dc.parameter(rng.standard_normal((3, 4)), "a.w"),
                  "a.b": dc.parameter(rng.standard_normal(3), "a.b"),
                  "scale": dc.parameter(np.array(-2.5), "scale")}
        meta = {"n_bands": 7, "seed": 3, "epoch": 9}
        base = str(tmp_path / "ckpt")
        ct.save_checkpoint(base, meta, params)
        meta2, arrays = ct.load_checkpoint(base)
        assert meta2 == meta
        for name, t in params.items():
            assert arrays[name].shape == t.data.shape
            assert np.array_equal(arrays[name], t.data)

    def test_load_into_live_params(self, tmp_path, rng):
        net = make_mlp([3, 2], ["linear"], seed=1)
        base = str(tmp_path / "ck")
        ct.save_checkpoint(base, {}, net.named_parameters())
        net2 = make_mlp([3, 2], ["linear"], seed=99)
        _, arrays = ct.load_checkpoint(base)
        dc.load_params_into(net2.named_parameters(), arrays)
        assert np.array_equal(net2.weights[0].data, net.weights[0].data)

    def test_load_into_packed_params_keeps_arena_views(self, tmp_path, rng):
        net = make_mlp([3, 2], ["linear"], seed=1)
        base = str(tmp_path / "ck")
        ct.save_checkpoint(base, {}, net.named_parameters())
        net2 = make_mlp([3, 2], ["linear"], seed=99)
        params = net2.named_parameters()
        state = dc.AdamState.create(params)
        _, arrays = ct.load_checkpoint(base)
        dc.load_params_into(params, arrays)
        for name, t in params.items():
            assert t.data is state.arena.params[name]
            assert np.array_equal(t.data, arrays[name])
        grads = {n: np.ones_like(a) for n, a in arrays.items()}
        dc.adam_step(params, grads, state, 0.01)
        for name, t in params.items():
            # Adam's first step moves every entry by lr against the gradient
            np.testing.assert_allclose(t.data, arrays[name] - 0.01, rtol=0,
                                       atol=1e-9)

    def test_raw_is_the_arrays_in_manifest_order(self, tmp_path, rng):
        params = {"t": rng.standard_normal((4, 3)).T,     # not C-contiguous
                  "s": np.array(1.25),
                  "p": dc.parameter(rng.standard_normal(5), "p")}
        base = str(tmp_path / "ck")
        ct.save_checkpoint(base, {"epoch": 0}, params)
        with open(base + ".json") as f:
            specs = json.load(f)["arrays"]
        assert [specs[n]["offset"] for n in params] == [0, 96, 104]
        expected = b"".join(np.ascontiguousarray(
            a.data if isinstance(a, dc.Tensor) else a, "<f8").tobytes()
            for a in params.values())
        with open(base + ".raw", "rb") as f:
            assert f.read() == expected

    def test_corrupt_manifest_field(self, tmp_path):
        from unmix.errors import BundleError
        p = dc.parameter(np.ones(2), "p")
        base = str(tmp_path / "ck")
        ct.save_checkpoint(base, {}, {"p": p})
        import json
        manifest = json.load(open(base + ".json"))
        manifest["dtype"] = "f32le"
        json.dump(manifest, open(base + ".json", "w"))
        with pytest.raises(BundleError):
            ct.load_checkpoint(base)

    @pytest.mark.parametrize("arrays,field", [([], "arrays"), (None, "arrays"),
                                              ({"p": 5}, "p")])
    def test_malformed_array_table(self, tmp_path, arrays, field):
        base = str(tmp_path / "ck")
        ct.save_checkpoint(base, {}, {"p": dc.parameter(np.ones(2), "p")})
        with open(base + ".json") as f:
            manifest = json.load(f)
        manifest["arrays"] = arrays
        with open(base + ".json", "w") as f:
            json.dump(manifest, f)
        with pytest.raises(BundleError) as exc_info:
            ct.load_checkpoint(base)
        assert exc_info.value.field == field
