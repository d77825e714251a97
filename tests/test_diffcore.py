"""Tensor core: forward ops, reverse accumulation, Adam, schedule, checkpoints."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import (fd_param_grads, max_rel_err, make_mlp, one_network,
                      zero_mlp)
from unmix import container as ct
from unmix import diffcore as dc
from unmix.errors import BundleError, ContractError, ShapeError, TrainingError
from unmix.inference import model_parameters


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

    @pytest.mark.parametrize("widths, activations, rule", [
        ([3, 4, 2], ["relu"], "need one activation per weight layer"),
        ([3, 2], ["tanh"], "unknown activation 'tanh'")])
    def test_create_rejects_activations_that_do_not_fit(self, widths,
                                                        activations, rule):
        with pytest.raises(ShapeError, match=f"^{rule}$"):
            dc.MlpParams.create(widths, activations,
                                np.random.default_rng(0), "net")

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


def _weight_first_chain(x, w, b, act):
    """The same layer with the product taken weight first, (w xᵀ)ᵀ: the
    reference for ``dense``'s C-ordered weight gradient gᵀ x."""
    b = b.reshape(b.shape[:-1] + (1, b.shape[-1]))
    return _CHAIN_ACTS[act](dc.matmul(w, x.transpose()).transpose() + b)


def _chain_grads(fn, x, w, b, act, weights):
    """The output of ``fn`` and the gradients of its weighted sum."""
    params = {"x": dc.parameter(x, "x"), "w": dc.parameter(w, "w"),
              "b": dc.parameter(b, "b")}
    out = fn(params["x"], params["w"], params["b"], act)
    return out.data, dc.backward((out * weights).sum(), params)


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
        """The value and the input and bias gradients are the chain's bit
        for bit; the weight gradient is the weight-first chain's.  The
        (64, 1125) x (1120, 1125) layer, the mixing net's first, and the
        (5, 320, 274) x (5, 224, 274) bank layer are large enough that
        (xᵀ g)ᵀ, the weight gradient's other order, differs from gᵀ x."""
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([800.0, -800.0, 0.0, -0.0, tiny, -tiny, 1e-310,
                            -1e-310, 36.7, -36.7, 745.2, -745.2])
        # an identity layer passes the special values through as
        # pre-activations; a random layer mixes them with the others
        x = np.concatenate([rng.uniform(-800.0, 800.0, (20, 12)),
                            rng.standard_normal((20, 12)), np.diag(special)])
        cases = [(x, np.eye(12), np.zeros(12)),
                 (x, rng.standard_normal((7, 12)), rng.standard_normal(7)),
                 (rng.standard_normal((64, 1125)),
                  0.03 * rng.standard_normal((1120, 1125)),
                  rng.standard_normal(1120)),
                 (rng.standard_normal((5, 320, 274)),
                  0.06 * rng.standard_normal((5, 224, 274)),
                  rng.standard_normal((5, 224)))]
        for x, w, b in cases:
            weights = rng.standard_normal(x.shape[:-1] + w.shape[-2:-1])
            out, grads = _chain_grads(dc.dense, x, w, b, act, weights)
            if w.ndim == 2:
                want, chain = _chain_grads(_chain, x, w, b, act, weights)
                assert out.tobytes() == want.tobytes()
                for name in ("x", "b"):
                    assert grads[name].shape == chain[name].shape
                    assert grads[name].tobytes() == chain[name].tobytes()
            want, first = _chain_grads(_weight_first_chain, x, w, b, act,
                                       weights)
            assert out.tobytes() == want.tobytes()
            assert grads["w"].shape == first["w"].shape
            assert grads["w"].tobytes() == first["w"].tobytes()

    @pytest.mark.parametrize("bank", [0, 3])
    def test_weight_gradient_is_c_ordered(self, rng, bank):
        """The weight gradient is written into the weight's C-ordered arena
        view, for one network and for a bank, as ``swapaxes(g) @ x``."""
        lead = (bank,) if bank else ()
        x = dc.constant(rng.standard_normal(lead + (6, 4)))
        params = {"w": dc.parameter(rng.standard_normal(lead + (5, 4)), "w"),
                  "b": dc.parameter(rng.standard_normal(lead + (5,)), "b")}
        arena = dc.ParamArena(params)
        out = dc.dense(x, params["w"], params["b"], "relu")
        weights = rng.standard_normal(out.shape)
        grads = dc.backward((out * weights).sum(), params)
        view = arena.grads["w"]
        assert grads["w"] is view and view.flags.c_contiguous
        g = weights * (out.data > 0.0)
        assert view.tobytes() == (np.swapaxes(g, -1, -2) @ x.data).tobytes()

    def test_one_graph_node_per_layer(self, rng):
        net = make_mlp([3, 5, 4, 2], ["relu", "sigmoid", "linear"], seed=2)
        x = dc.constant(rng.standard_normal((6, 3)))
        out = dc.mlp_forward(net, x)
        inner = [t for t in dc._toposort(out) if t._parents]
        assert len(inner) == 3
        assert inner[0]._parents[0] is x
        # the walk stops at the parameters: the constant input is not a node
        leaves = {id(t) for t in (*net.weights, *net.biases)}
        assert {id(t) for t in dc._toposort(out) if not t._parents} == leaves

    def test_rejects_bad_input_and_activation(self):
        w, b = dc.constant(np.ones((2, 3))), dc.constant(np.zeros(2))
        with pytest.raises(ShapeError):
            dc.dense(dc.constant(np.ones(3)), w, b, "relu")
        with pytest.raises(ShapeError):
            dc.dense(dc.constant(np.ones((4, 2))), w, b, "relu")
        with pytest.raises(ShapeError):
            dc.dense(dc.constant(np.ones((4, 3))), w, b, "tanh")

    @pytest.mark.parametrize("a_shape, b_shape, rule", [
        ((3,), (3, 2), "matmul needs ndim >= 2 operands"),
        ((4, 3), (3,), "matmul needs ndim >= 2 operands"),
        ((4, 3), (2, 5), "matmul inner dims differ")])
    def test_matmul_rejects_operands_that_do_not_fit(self, a_shape, b_shape,
                                                     rule):
        with pytest.raises(ShapeError, match=f"^{rule}"):
            dc.matmul(dc.constant(np.ones(a_shape)),
                      dc.constant(np.ones(b_shape)))


def _bank_case(rng, layout: str):
    """A (P, out, in) bank with bias, and its input: one per network
    ("own"), or a constant broadcast view of one input ("broadcast"), the
    one code unmixing passes all P decoders.  Returns the input and the
    parameters, the input among them when it is one."""
    P, rows, n_in, n_out = 3, 5, 4, 6
    x = rng.standard_normal((P, rows, n_in) if layout == "own"
                            else (rows, n_in))
    params = {"w": dc.parameter(rng.standard_normal((P, n_out, n_in)), "w"),
              "b": dc.parameter(rng.standard_normal((P, n_out)), "b")}
    if layout == "own":
        params["x"] = x = dc.parameter(x, "x")
    else:
        x = dc.constant(np.broadcast_to(x, (P, rows, n_in)))
    return x, params


class TestDenseBank:
    """A bank of P networks in one ``dense`` node: P is a batch axis."""

    @pytest.mark.parametrize("layout", ["own", "broadcast"])
    @pytest.mark.parametrize("act", ACTS)
    def test_matches_finite_differences(self, rng, act, layout):
        x, params = _bank_case(rng, layout)

        def loss_t():
            out = dc.dense(x, params["w"], params["b"], act)
            return (out * out).sum() + _sin(out).sum()

        assert loss_t().shape == ()
        grads = dc.backward(loss_t(), params)
        fd = fd_param_grads(lambda: loss_t().item(), params)
        assert max_rel_err(grads, fd) < 1e-6

    @pytest.mark.parametrize("layout", ["own", "broadcast"])
    @pytest.mark.parametrize("act", ACTS)
    def test_slices_bitwise_equal_one_network(self, rng, act, layout):
        x, params = _bank_case(rng, layout)
        out = dc.dense(x, params["w"], params["b"], act)
        weights = rng.standard_normal(out.shape)
        bank = dc.backward((out * weights).sum(), params)
        bank = {k: g.copy() for k, g in bank.items()}
        for k in range(params["w"].shape[0]):
            one = {"w": dc.parameter(params["w"].data[k], "w"),
                   "b": dc.parameter(params["b"].data[k], "b")}
            if layout == "own":
                one["x"] = x_k = dc.parameter(x.data[k], "x")
            else:
                x_k = dc.constant(x.data[k])
            out_k = dc.dense(x_k, one["w"], one["b"], act)
            g_k = dc.backward((out_k * weights[k]).sum(), one)
            assert out_k.data.tobytes() == out.data[k].tobytes()
            for name in one:
                assert g_k[name].tobytes() == bank[name][k].tobytes(), name

    def test_mlp_bank_folds_all_but_the_bank_axis(self, rng):
        net = dc.MlpParams.create([2, 5, 3], ["relu", "sigmoid"],
                                  np.random.default_rng(1), "bank", bank=4)
        assert net.bank == 4 and net.weights[1].shape == (4, 3, 5)
        z = dc.parameter(rng.standard_normal((4, 2, 6, 2)), "z")
        out = dc.mlp_forward(net, z)
        assert out.shape == (4, 2, 6, 3)
        layers = [t for t in dc._toposort(out) if len(t._parents) == 3]
        assert [t.shape for t in layers] == [(4, 12, 5), (4, 12, 3)]
        for k in range(4):
            assert dc.mlp_forward(one_network(net, k), z.data[k]).data.tobytes() \
                == out.data[k].tobytes()
        # one input for every network: a broadcast view, not a copy
        shared = dc.mlp_forward(net, np.broadcast_to(z.data[0], z.shape))
        assert shared.shape == (4, 2, 6, 3)
        assert shared.data[0].tobytes() == out.data[0].tobytes()

    def test_draws_match_networks_made_one_by_one(self):
        bank = dc.MlpParams.create([2, 5, 3], ["relu", "linear"],
                                   np.random.default_rng(9), "bank", bank=3)
        rng = np.random.default_rng(9)
        for k in range(3):
            one = dc.MlpParams.create([2, 5, 3], ["relu", "linear"], rng, "n")
            for w, w_k in zip(bank.weights, one.weights):
                assert w.data[k].tobytes() == w_k.data.tobytes()

    def test_rejects_a_bank_of_another_size(self, rng):
        _, params = _bank_case(rng, "own")
        with pytest.raises(ShapeError):
            dc.dense(dc.constant(np.ones((2, 5, 4))), params["w"],
                     params["b"], "relu")
        with pytest.raises(ShapeError):
            dc.dense(dc.constant(np.ones((3, 5, 4))),
                     dc.constant(params["w"].data[0]),
                     dc.constant(params["b"].data[0]), "relu")

    def test_moveaxis_is_c_ordered_both_ways(self, rng):
        x = dc.parameter(rng.standard_normal((3, 4, 5)), "x")
        moved = dc.moveaxis(x, 0, -1)
        assert moved.data.flags.c_contiguous
        assert np.array_equal(moved.data, np.moveaxis(x.data, 0, -1))
        (g,) = moved._vjp(np.ones(moved.shape))
        assert g.flags.c_contiguous and g.shape == x.shape

        def loss_t():
            return _sin(dc.moveaxis(x, 0, -1) * np.arange(60.0).reshape(
                4, 5, 3)).sum()

        grads = dc.backward(loss_t(), {"x": x})
        fd = fd_param_grads(lambda: loss_t().item(), {"x": x})
        assert max_rel_err(grads, fd) < 1e-6


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
        params = model_parameters(net)

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
        params = model_parameters(net)
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
        params = model_parameters(net)

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

    @pytest.mark.parametrize("q_shape", [(3, 4), (4,), (3, 1)])
    def test_subtraction_is_one_node(self, rng, q_shape):
        p = dc.parameter(rng.standard_normal((3, 4)), "p")
        q = dc.parameter(rng.standard_normal(q_shape), "q")
        loss = (p - q).sum()
        walked = dc._toposort(loss)
        assert len(walked) == 4 and walked[-1] is loss
        assert {id(t) for t in walked[:2]} == {id(p), id(q)}
        assert walked[2]._parents == (p, q)
        params = {"p": p, "q": q}
        grads = dc.backward(loss, params)
        fd = fd_param_grads(lambda: (p - q).sum().item(), params)
        assert max_rel_err(grads, fd) < 1e-6

    def test_shared_operand_accumulates(self):
        x = dc.parameter(np.array([2.0]), "x")
        loss = (x * x + x * 3.0).sum()
        grads = dc.backward(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], [7.0])

    def test_leaves_fed_one_shared_cotangent_get_their_own_arrays(self):
        """A sum hands both operands one read-only cotangent; each unpacked
        leaf still gets a writable gradient array of its own."""
        a = dc.parameter(np.array([1.0, 2.0]), "a")
        b = dc.parameter(np.array([3.0, 4.0]), "b")
        grads = dc.backward((a + b).sum(), {"a": a, "b": b})
        assert grads["a"] is not grads["b"]
        grads["a"] += 5.0
        assert np.array_equal(grads["a"], [6.0, 6.0])
        assert np.array_equal(grads["b"], [1.0, 1.0])

    @pytest.mark.parametrize("packed", [False, True], ids=["own", "arena"])
    def test_only_leaves_keep_grad(self, rng, packed):
        net = make_mlp([3, 4, 2], ["relu", "sigmoid"], seed=3)
        params = model_parameters(net)
        if packed:
            dc.ParamArena(params)
        x = dc.constant(rng.standard_normal((5, 3)))
        h = dc.mlp_forward(net, x)
        loss = (h * h).sum() + h.sum()
        grads = dc.backward(loss, params)
        order = dc._toposort(loss)
        assert all(n.grad is None for n in order if n._vjp is not None)
        leaves = [n for n in order if n._vjp is None]
        assert len(leaves) == len(params)
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
            params = model_parameters(net)
            store = dc.ParamArena(params) if packed else None
            x = dc.constant(np.random.default_rng(5).standard_normal((6, 3)))
            w = net.weights[1]
            loss = ((dc.mlp_forward(net, x) * 1.7).sum() + dc.l2norm(w)
                    + (w * w).sum() * 0.3)
            return dc.backward(loss, params), store

        own, _ = run(False)
        packed, store = run(True)
        for name in own:
            assert packed[name].tobytes() == own[name].tobytes(), name
            assert packed[name] is store.grads[name]

    @pytest.mark.parametrize("packed", [False, True], ids=["own", "arena"])
    def test_touched_then_untouched_reads_exact_zeros(self, packed):
        a = dc.parameter(np.array([1.0, 2.0]), "a")
        b = dc.parameter(np.array([[3.0, -1.0]]), "b")
        params = {"a": a, "b": b}
        if packed:
            dc.ParamArena(params)
        first = dc.backward((a * b).sum(), params)
        assert np.array_equal(first["b"], [[1.0, 2.0]])
        second = dc.backward((a * a).sum(), params)
        assert np.array_equal(second["a"], [2.0, 4.0])
        assert np.array_equal(second["b"], np.zeros((1, 2)))
        assert b.grad is None or not b.grad.any()

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3, 5)],
                             ids=["network", "bank"])
    def test_l2norm_matches_finite_differences(self, rng, shape):
        w = dc.parameter(rng.standard_normal(shape), "w")
        grads = dc.backward(dc.l2norm(w) * 1.7, {"w": w})
        fd = fd_param_grads(lambda: 1.7 * dc.l2norm(w).item(), {"w": w})
        assert max_rel_err(grads, fd) < 1e-6
        assert abs(dc.l2norm(w).item() - np.linalg.norm(w.data.ravel())) \
            <= 1e-15 * np.linalg.norm(w.data.ravel())

    def test_l2norm_gradient_and_zero_subgradient(self, rng):
        w = dc.parameter(rng.standard_normal((3, 2)), "w")
        grads = dc.backward(dc.l2norm(w), {"w": w})
        np.testing.assert_allclose(grads["w"],
                                   w.data / np.linalg.norm(w.data), rtol=1e-12)
        z = dc.parameter(np.zeros(4), "z")
        grads = dc.backward(dc.l2norm(z), {"z": z})
        assert np.array_equal(grads["z"], np.zeros(4))


class TestGradientWriters:
    """``dense`` hands back its weight gradient, and ``l2norm`` its VJP, as
    a writer ``into(out, add)``: ``backward`` has it write the first
    contribution into the gradient's buffer and add later ones in place."""

    # (bank, rows): one network and a bank of three, at a short contraction
    # and at one long enough for dgemm to sum the rows in several passes
    DENSE = [(0, 6), (3, 6), (0, 3000), (3, 3000)]

    @pytest.mark.parametrize("bank, rows", DENSE)
    def test_dense_writer_equals_the_materialized_gradient(self, rng, bank,
                                                           rows):
        lead = (bank,) if bank else ()
        x = rng.standard_normal(lead + (rows, 4))
        w = dc.parameter(rng.standard_normal(lead + (5, 4)), "w")
        b = dc.parameter(rng.standard_normal(lead + (5,)), "b")
        out = dc.dense(dc.constant(x), w, b, "linear")
        g = rng.standard_normal(out.shape)
        _, into, _ = out._vjp(g)
        gw = np.swapaxes(g, -1, -2) @ x
        written = np.full(w.shape, np.nan)
        into(written, False)
        assert written.tobytes() == gw.tobytes()
        start = rng.standard_normal(w.shape)
        added = start.copy()
        into(added, True)
        want = start + gw
        assert np.max(np.abs(added - want)) <= 1e-12 * np.max(np.abs(want))
        if rows < 100:
            assert added.tobytes() == want.tobytes()

    def test_l2norm_writer_equals_the_materialized_gradient(self, rng):
        x = dc.parameter(rng.standard_normal((4, 3, 5)), "x")
        norm = dc.l2norm(x)
        (into,) = norm._vjp(np.array(1.7))
        want = x.data * (1.7 / norm.item())
        written = np.full(x.shape, np.nan)
        into(written, False)
        assert written.tobytes() == want.tobytes()
        start = rng.standard_normal(x.shape)
        added = start.copy()
        into(added, True)
        assert np.max(np.abs(added - (start + want))) \
            <= 1e-12 * np.max(np.abs(start + want))

    @pytest.mark.parametrize("bank", [0, 3])
    def test_weight_with_three_contributions_matches_finite_differences(
            self, rng, bank):
        """A weight read by two ``dense`` calls and its norm, like the
        mixing net's first layer: packed, it gets the unpacked gradient
        bit for bit, and both match finite differences."""
        lead = (bank,) if bank else ()
        x1, x2 = (dc.constant(rng.standard_normal(lead + (6, 4)))
                  for _ in range(2))
        values = {"w": rng.standard_normal(lead + (5, 4)),
                  "b": rng.standard_normal(lead + (5,))}

        def run(packed):
            params = {n: dc.parameter(v, n) for n, v in values.items()}
            if packed:
                dc.ParamArena(params)
            w, b = params["w"], params["b"]

            def loss_t():
                return (_sin(dc.dense(x1, w, b, "relu")).sum()
                        + (dc.dense(x2, w, b, "sigmoid") * 1.3).sum()
                        + dc.l2norm(w) * 0.7)
            grads = dc.backward(loss_t(), params)
            grads = {n: g.copy() for n, g in grads.items()}
            fd = fd_param_grads(lambda: loss_t().item(), params)
            assert max_rel_err(grads, fd) < 1e-6
            return grads

        own, arena = run(False), run(True)
        for name in own:
            assert arena[name].tobytes() == own[name].tobytes(), name

    @pytest.mark.parametrize("packed", [False, True])
    def test_writer_into_an_interior_node_matches_finite_differences(
            self, rng, monkeypatch, packed):
        """A writer whose operand is computed, ``dense``'s for the weight
        ``w * 1.5`` and ``l2norm``'s for ``z * z + 1``, is materialized
        once each and the gradients reaching the leaves match central
        differences, unpacked and packed."""
        shapes = []
        materialize = dc._materialize

        def spy(into, shape):
            shapes.append(shape)
            return materialize(into, shape)
        monkeypatch.setattr(dc, "_materialize", spy)
        x = dc.constant(rng.standard_normal((6, 4)))
        weights = rng.standard_normal((6, 5))
        params = {"w": dc.parameter(rng.standard_normal((5, 4)), "w"),
                  "b": dc.parameter(rng.standard_normal(5), "b"),
                  "z": dc.parameter(rng.standard_normal((3, 2)), "z")}
        if packed:
            dc.ParamArena(params)
        w, b, z = params.values()

        def loss_t():
            return ((dc.dense(x, w * 1.5, b, "sigmoid") * weights).sum()
                    + dc.l2norm(z * z + 1.0) * 0.7)
        grads = dc.backward(loss_t(), params)
        assert sorted(shapes) == [(3, 2), (5, 4)]
        fd = fd_param_grads(lambda: loss_t().item(), params)
        assert max_rel_err(grads, fd) < 1e-6

    def test_writer_after_a_shared_array_copies_it_first(self, rng):
        """A sum's VJP hands both operands one read-only array; a writer
        adding to the first operand's gradient must not touch the other's."""
        x = dc.constant(rng.standard_normal((6, 4)))
        w = dc.parameter(rng.standard_normal((5, 4)), "w")
        b = dc.parameter(rng.standard_normal(5), "b")
        other = dc.parameter(rng.standard_normal((5, 4)), "other")
        out = dc.dense(x, w, b, "linear")
        g = rng.standard_normal(out.shape)
        # the sum's nodes run first, so w's first contribution is the array
        loss = (out * g).sum() + (w + other).sum()
        grads = dc.backward(loss, {"w": w, "b": b, "other": other})
        assert np.array_equal(grads["other"], np.ones((5, 4)))
        want = 1.0 + g.T @ x.data
        assert np.max(np.abs(grads["w"] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_step_allocates_no_weight_sized_temporary(self, rng):
        """One ``backward`` and Adam step on a 1120 x 1125 weight with three
        contributions, like the mixing net's first layer: no temporary as
        large as the weight is allocated."""
        w = dc.parameter(0.03 * rng.standard_normal((1120, 1125)), "w")
        b = dc.parameter(np.zeros(1120), "b")
        params = {"w": w, "b": b}
        arena = dc.ParamArena(params)
        x1, x2 = (dc.constant(rng.standard_normal((64, 1125)))
                  for _ in range(2))
        loss = (dc.dense(x1, w, b, "relu").sum()
                + dc.dense(x2, w, b, "sigmoid").sum() + dc.l2norm(w))
        tracemalloc.start()
        try:
            dc.backward(loss, params)
            dc.adam_step(arena, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.data.nbytes, peak


def _sin(t):
    return dc.Tensor(np.sin(t.data), (t,), lambda g: (g * np.cos(t.data),))


def _every_op(x: dc.Tensor, net: dc.MlpParams) -> list[dc.Tensor]:
    """One tensor from each differentiable op, chained off ``x`` (4, 3)."""
    h = dc.mlp_forward(net, x)
    return [h, x + 1.5, x * 2.0, -x, x - 0.5,
            1.0 - x, x / 3.0, 2.0 / (x * x + 1.0), (x * x) ** 1.5,
            x.reshape((3, 4)), x.transpose(), x.sum(axis=0), x.mean(),
            dc.relu(x), dc.sigmoid(x), dc.exp(x), dc.log(x * x + 1.0),
            dc.lgamma(x * x + 0.5), dc.clip(x, -0.2, 0.3), dc.l2norm(x),
            dc.matmul(x, x.transpose()), dc.concat([x, h], axis=-1),
            dc.moveaxis(x, 0, -1), dc.logsumexp(x, axis=-1)] + [
                dc.dense(x, net.weights[0], net.biases[0], act)
                for act in ACTS]


def _constant_net(net: dc.MlpParams) -> dc.MlpParams:
    """The same network over the same arrays, as constants."""
    arrays = {n: t.data for n, t in model_parameters(net).items()}
    return dc.MlpParams.create(net.widths, net.activations,
                               dc.StoredParams(arrays), "net")


_N_OPS = len(_every_op(dc.constant(np.zeros((4, 3))),
                       make_mlp([3, 5, 2], ["relu", "sigmoid"])))


@pytest.mark.parametrize("op", range(_N_OPS))
def test_every_op_matches_finite_differences(rng, op):
    """Each hand-written VJP, through ``backward`` of the op's output
    weighted by fixed random values, gives the central differences over
    ``x`` and the network's parameters."""
    x = dc.parameter(rng.standard_normal((4, 3)), "x")
    net = make_mlp([3, 5, 2], ["relu", "sigmoid"], seed=4)
    params = {"x": x, **model_parameters(net)}
    out = _every_op(x, net)[op]
    weights = rng.standard_normal(out.data.shape)

    def loss_fn():
        return float((_every_op(x, net)[op].data * weights).sum())

    grads = dc.backward((out * weights).sum(), params)
    assert max_rel_err(grads, fd_param_grads(loss_fn, params)) < 1e-4


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

    def test_constant_operands_get_no_cotangent(self, rng):
        c = dc.constant(rng.standard_normal((3, 3)))
        p = dc.parameter(rng.standard_normal((3, 3)), "p")
        g = np.ones((3, 3))
        for out in (p + c, p - c, p * c, p / c, dc.matmul(p, c)):
            assert out._vjp(g)[1] is None and out._vjp(g)[0] is not None
        for out in (c + p, c - p, c * p, c / p, dc.matmul(c, p)):
            assert out._vjp(g)[0] is None and out._vjp(g)[1] is not None
        # the reverse walk does not reach constants at all
        loss = (p * c + c).sum()
        assert all(t.requires_grad for t in dc._toposort(loss))

    def test_leaves(self, rng):
        assert dc.parameter(np.ones(2), "p").requires_grad
        assert not dc.constant(np.ones(2)).requires_grad
        stored = dc.StoredParams({"s": rng.standard_normal(3)})
        t = stored.value("s", np.zeros(3))
        assert not t.requires_grad
        dc.ParamArena({"s": t})
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


def _adam(arena: dc.ParamArena, grads: dict[str, np.ndarray], lr: float):
    """Write ``grads`` into the arena's gradient views, then take a step."""
    for name, g in grads.items():
        arena.grads[name][...] = g
    dc.adam_step(arena, lr)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = dc.parameter(np.array([1.0, -2.0]), "p")
        arena = dc.ParamArena({"p": p})
        _adam(arena, {"p": np.zeros(2)}, lr=0.01)
        np.testing.assert_allclose(p.data, [1.0, -2.0])
        assert arena.step == 1

    def test_first_step_magnitude_is_lr(self):
        p = dc.parameter(np.array(0.0), "p")
        arena = dc.ParamArena({"p": p})
        _adam(arena, {"p": np.array(1.0)}, lr=0.001)
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
        arena = dc.ParamArena({"p": p})
        _adam(arena, {"p": np.array(1.0)}, lr=0.001)
        x1 = float(p.data)
        _adam(arena, {"p": np.array(-1.0)}, lr=0.001)
        flip_second = abs(float(p.data) - x1)
        const_second = abs(two_steps(1.0, 1.0)[1])
        assert flip_second < const_second
        np.testing.assert_allclose(flip_second, abs(two_steps(1.0, -1.0)[1]),
                                   rtol=1e-12)

    def test_non_finite_gradient_changes_nothing(self, rng):
        params = {n: dc.parameter(rng.standard_normal(shape), n)
                  for n, shape in (("a", (3, 2)), ("b", ()), ("c", (4,)))}
        arena = dc.ParamArena(params)
        grads = {n: rng.standard_normal(t.data.shape) for n, t in params.items()}
        _adam(arena, grads, 0.01)
        m, v = arena.views(arena.m), arena.views(arena.v)
        before = ({n: t.data.copy() for n, t in params.items()},
                  {n: a.copy() for n, a in m.items()},
                  {n: a.copy() for n, a in v.items()}, arena.step)
        for bad in (np.nan, np.inf, -np.inf):
            grads["b"] = np.array(bad)
            with pytest.raises(TrainingError,
                               match=r"parameter=b index \(\)"):
                _adam(arena, grads, 0.01)
            after = ({n: t.data for n, t in params.items()}, m, v, arena.step)
            for old, new in zip(before[:3], after[:3]):
                for n in old:
                    assert old[n].tobytes() == new[n].tobytes(), (n, bad)
            assert after[3] == before[3] == 1

    def test_matches_textbook_update_across_block_edges(self, rng):
        """The folded update is the textbook one to rounding: each step, from
        the same state, within 1e-12 of the magnitudes it sums."""
        def textbook(p, m, v, g, t, lr, b1=dc.ADAM_BETA1, b2=dc.ADAM_BETA2,
                     eps=dc.ADAM_EPS):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            step = lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            return p - step, m, v, step

        block = dc._ADAM_BLOCK
        # "edge" (0-d) starts the second block; "big" spans more than one
        shapes = {"w": (5, 4), "b": (5,), "s": (), "pad": (block - 26,),
                  "edge": (), "big": (block + 37,), "tail": ()}
        params = {n: dc.parameter(rng.standard_normal(s), n)
                  for n, s in shapes.items()}
        arena = dc.ParamArena(params)
        start = arena.values.__array_interface__["data"][0]
        assert params["edge"].data.__array_interface__["data"][0] \
            == start + 8 * block
        assert arena.size > 2 * block
        buffers = {n: t.data for n, t in params.items()}
        for t in range(1, 5):
            grads = {n: rng.standard_normal(s) * 10.0 ** rng.integers(-3, 3)
                     for n, s in shapes.items()}
            g = np.concatenate([grads[n].ravel() for n in shapes])
            before = (arena.values.copy(), arena.m.copy(),
                      arena.v.copy())
            _adam(arena, grads, 0.003)
            p, m, v, step = textbook(*before, g, t, 0.003)
            scales = (np.abs(before[0]) + np.abs(step),
                      dc.ADAM_BETA1 * np.abs(before[1]) + np.abs(g),
                      v)
            for got, want, scale in zip(
                    (arena.values, arena.m, arena.v), (p, m, v),
                    scales):
                assert np.all(np.abs(got - want) <= 1e-12 * scale), t
        assert all(params[n].data is buffers[n] for n in shapes)

    def test_non_finite_gradient_names_first_in_arena_order(self, rng):
        params = {n: dc.parameter(rng.standard_normal(4), n)
                  for n in ("a", "b", "c")}
        arena = dc.ParamArena(params)
        grads = {n: np.ones(4) for n in params}
        grads["c"][1] = np.nan
        grads["b"][3] = -np.inf
        with pytest.raises(TrainingError, match=r"parameter=b index \(3,\)"):
            _adam(arena, grads, 0.01)
        assert arena.step == 0 and not arena.m.any()

    def test_non_finite_gradient_names_the_entry_of_a_bank(self, rng):
        params = {"w": dc.parameter(rng.standard_normal((5, 11, 6)), "w"),
                  "gen.em_decoder.w2": dc.parameter(
                      rng.standard_normal((4, 12, 5)), "gen.em_decoder.w2")}
        arena = dc.ParamArena(params)
        grads = {n: np.ones(t.data.shape) for n, t in params.items()}
        grads["gen.em_decoder.w2"][3, 10, 4] = np.nan
        grads["gen.em_decoder.w2"][3, 11, 0] = np.inf
        with pytest.raises(TrainingError) as info:
            _adam(arena, grads, 0.01)
        assert "parameter=gen.em_decoder.w2 index (3, 10, 4)" \
            in str(info.value)
        assert info.value.index == (3, 10, 4)

    @pytest.mark.parametrize("big", [1.2e154, 1e200])
    def test_finite_gradient_that_overflows_the_check_proceeds(self, rng,
                                                               big):
        """Entries whose squares sum past the largest double make the
        check's dot product infinite; the exact scan finds them finite, so
        the step runs.  At 1.2e154 each square is still finite, so the step
        warns of nothing and is the textbook one; at 1e200 the square in
        the second moment overflows too."""
        p = dc.parameter(rng.standard_normal(6), "p")
        arena = dc.ParamArena({"p": p})
        g = rng.standard_normal(6)
        g[[1, 4]] = big
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(g, g))
        old = p.data.copy()
        squares_overflow = not np.isfinite(big * big)
        with np.errstate(over="ignore" if squares_overflow else "raise"):
            _adam(arena, {"p": g}, 0.01)
        assert arena.step == 1 and np.isfinite(p.data).all()
        if not squares_overflow:
            want = old - 0.01 * g / (np.sqrt(g * g) + dc.ADAM_EPS)
            np.testing.assert_allclose(p.data, want, rtol=1e-12)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
    def test_bad_learning_rate_changes_nothing(self, lr):
        p = dc.parameter(np.array([1.0, -2.0]), "p")
        arena = dc.ParamArena({"p": p})
        with pytest.raises(ContractError, match="learning rate"):
            _adam(arena, {"p": np.ones(2)}, lr)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert arena.step == 0 and not arena.m.any() and not arena.v.any()

    def test_non_finite_gradient_names_parameter(self):
        p = dc.parameter(np.array(0.0), "gen.obs_log_scale")
        arena = dc.ParamArena({"gen.obs_log_scale": p})
        with pytest.raises(TrainingError, match="gen.obs_log_scale"):
            _adam(arena, {"gen.obs_log_scale": np.array(np.nan)}, 0.001)


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
        arena = dc.ParamArena(packed)
        ref = fd_param_grads(loss(plain), plain)
        got = fd_param_grads(loss(packed), packed)
        for name, t in packed.items():
            assert t.data is arena.params[name]
            assert np.array_equal(t.data, plain[name].data)
            assert np.array_equal(got[name], ref[name])

    def test_zero_mlp_keeps_arena_views(self):
        net = make_mlp([3, 4, 2], ["relu", "linear"], seed=2)
        params = model_parameters(net)
        arena = dc.ParamArena(params)
        zero_mlp(net)
        for name, t in params.items():
            assert t.data is arena.params[name]
        assert not arena.values.any()


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
        ct.save_checkpoint(base, {}, model_parameters(net))
        net2 = make_mlp([3, 2], ["linear"], seed=99)
        _, arrays = ct.load_checkpoint(base)
        dc.load_params_into(model_parameters(net2), arrays)
        assert np.array_equal(net2.weights[0].data, net.weights[0].data)

    def test_load_into_packed_params_keeps_arena_views(self, tmp_path, rng):
        net = make_mlp([3, 2], ["linear"], seed=1)
        base = str(tmp_path / "ck")
        ct.save_checkpoint(base, {}, model_parameters(net))
        net2 = make_mlp([3, 2], ["linear"], seed=99)
        params = model_parameters(net2)
        arena = dc.ParamArena(params)
        _, arrays = ct.load_checkpoint(base)
        dc.load_params_into(params, arrays)
        for name, t in params.items():
            assert t.data is arena.params[name]
            assert np.array_equal(t.data, arrays[name])
        grads = {n: np.ones_like(a) for n, a in arrays.items()}
        _adam(arena, grads, 0.01)
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
