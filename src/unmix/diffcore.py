"""Differentiable numerical core.

Dense float64 tensors with reverse-mode accumulation over a per-loss
recorded graph, small feedforward networks, the Adam update, and the
learning-rate schedule used by the training loop.  One rule sets a
tensor's dtype: float32 data stays float32 and anything else becomes
float64.  ``dense`` computes in its weight's dtype, casting its input to
it, which for a float64 weight is a no-op; so a network whose weights and
biases are float32 runs in float32 through the same code, and everything
downstream of it widens back to float64 by numpy's promotion as soon as
it meets a float64 operand.  Only the forward-only unmixing pass
(``inference.point_estimate_blocks``) builds float32 weights; training is
float64 throughout, its parameters, gradients, Adam moments and
checkpoints included.  Graphs are rebuilt
for every loss evaluation; only parameter tensors persist.  One rule
decides what a graph records: a tensor needs a gradient if and only if a
parameter feeds it, so an op on constants alone records nothing, a
forward-only pass is a pass over constants, and no VJP computes or
receives a constant operand's cotangent.  Each arithmetic op records one
node: ``a - b`` is a subtraction node, not a negation feeding an addition.
An ``MlpParams`` is one network or a bank of P networks of one shape
stacked along a leading axis; the bank's P is the only batch axis that
reaches ``matmul``, every other leading axis being folded into the rows of
each layer's product.  A bank reads one input per network; to run the P
networks on one input, pass a broadcast view of it, which is not copied.

Training packs the parameters into a ``ParamArena``, the one store of
trainable state: flat float64 buffers of the values, their gradients and
Adam's moments, in parameter-dict order.  Each tensor's ``.data`` becomes
a view of the values, so from then on code must write parameters in place
(``t.data[...] = x``) and never rebind ``.data``.  A training step is
``backward``, which fills the arena's gradient, then ``adam_step(arena)``.

A VJP hands back each operand's cotangent as an array or, where the
cotangent is as large as a parameter, as a writer ``into(out, add)`` that
writes it into (``add`` false) or adds it to (``add`` true) a C-ordered
buffer ``out`` of the operand's shape without building it first.
``dense``'s weight gradient and ``l2norm``'s VJP are writers, so every
contribution to a packed weight lands in its arena view with no temporary
of the weight's size.  ``backward`` has two rules.  A leaf accumulates in a
buffer of its own, its arena view if packed and a fresh array otherwise:
the first contribution is written there, later ones are added in place.
An interior node's gradient is the plain sum of its contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BundleError, ContractError, ShapeError, TrainingError

# Checkpoints live in ``container``.  The benchmark under perfbench/ still
# calls and wraps them as diffcore names; drop this line once it does not.
from .container import load_checkpoint, save_checkpoint  # noqa: F401


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary_vjp(a: "Tensor", b: "Tensor", da, db):
    """The VJP of a broadcasting binary op: the cotangents ``da(g)`` and
    ``db(g)`` reduced to the operands' shapes, each computed only for an
    operand that needs a gradient."""
    return lambda g: (_unbroadcast(da(g), a.shape) if a.requires_grad else None,
                      _unbroadcast(db(g), b.shape) if b.requires_grad else None)


class Tensor:
    """A float64 array, or a float32 one given float32 data, recorded on a
    dynamically built computation graph.

    ``requires_grad`` is set when the tensor is made: for a leaf if asked,
    for an op's output if any parent has it.  Only then does it keep
    ``parents`` and ``vjp``, which push a cotangent back to the inputs.  A
    parameter packed into a ``ParamArena`` also holds its gradient view.
    """

    __slots__ = ("data", "grad", "name", "requires_grad", "_parents", "_vjp",
                 "_grad_view")

    def __init__(self, data, parents=(), vjp=None, name=None,
                 requires_grad=False):
        data = np.asarray(data)
        self.data = (data if data.dtype == np.float32
                     else np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.name = name
        self._grad_view: np.ndarray | None = None
        self.requires_grad = requires_grad or any(
            p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._vjp = vjp if self.requires_grad else None

    # ---- plumbing -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # ---- arithmetic -----------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        return Tensor(self.data + other.data, (self, other),
                      _binary_vjp(self, other, lambda g: g, lambda g: g))

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor(self.data * other.data, (self, other), _binary_vjp(
            self, other, lambda g: g * other.data, lambda g: g * self.data))

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = as_tensor(other)
        return Tensor(self.data - other.data, (self, other),
                      _binary_vjp(self, other, lambda g: g, lambda g: -g))

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __truediv__(self, other):
        other = as_tensor(other)
        return Tensor(self.data / other.data, (self, other), _binary_vjp(
            self, other, lambda g: g / other.data,
            lambda g: -g * self.data / other.data ** 2))

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, p: float):
        return Tensor(self.data ** p, (self,),
                      lambda g: (g * p * self.data ** (p - 1),))

    # ---- shape ops ------------------------------------------------

    def reshape(self, shape: tuple[int, ...]) -> "Tensor":
        return Tensor(self.data.reshape(shape), (self,),
                      lambda g: (g.reshape(self.shape),))

    def transpose(self) -> "Tensor":
        """Swap the last two axes."""
        return Tensor(np.swapaxes(self.data, -1, -2), (self,),
                      lambda g: (np.swapaxes(g, -1, -2),))

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape),)
            ax = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, self.shape),)
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      (self,), vjp)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        total = self.sum(axis=axis, keepdims=keepdims)
        return total * (total.data.size / self.data.size)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A leaf that needs no gradient: data, noise or a stored value."""
    return Tensor(x)


def parameter(x, name: str) -> Tensor:
    """A named leaf that needs a gradient, over a copy of ``x``."""
    return Tensor(np.array(x, dtype=np.float64), name=name, requires_grad=True)


# ---- elementwise nonlinearities -----------------------------------

def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return Tensor(np.maximum(x.data, 0.0), (x,),
                  lambda g: (g * (x.data > 0.0),))


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    d = x.data
    # 1 / (1 + e) for d >= 0 and e / (1 + e) below, with e = exp(-|d|):
    # exp(min(d, 0)) is exactly 1 above and e below, without a masked select
    s = np.exp(np.minimum(d, 0.0)) / (1.0 + np.exp(-np.abs(d)))
    return Tensor(s, (x,), lambda g: (g * s * (1.0 - s),))


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    e = np.exp(x.data)
    return Tensor(e, (x,), lambda g: (g * e,))


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return Tensor(np.log(x.data), (x,), lambda g: (g / x.data,))


def lgamma(x: Tensor) -> Tensor:
    from scipy.special import digamma, gammaln
    x = as_tensor(x)
    return Tensor(gammaln(x.data), (x,), lambda g: (g * digamma(x.data),))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient strictly inside (lo, hi)."""
    x = as_tensor(x)
    return Tensor(np.clip(x.data, lo, hi), (x,),
                  lambda g: (g * ((x.data > lo) & (x.data < hi)),))


def l2norm(x: Tensor) -> Tensor:
    """Euclidean norm of all entries, with subgradient 0 at the origin.

    The norm is one BLAS dot of the flat entries with themselves.  The VJP
    is a writer of ``x * (g / n)``, one pass over the entries: it writes
    with ``np.multiply`` and adds with ``daxpy``.
    """
    x = as_tensor(x)
    flat = x.data.ravel()
    n = math.sqrt(float(np.dot(flat, flat)))

    def vjp(g):
        s = float(g) / n if n > 0.0 else 0.0

        def into(out, add):
            if add:
                from scipy.linalg.blas import daxpy
                daxpy(flat, out.reshape(-1), a=s)
            else:
                np.multiply(x.data, s, out=out)
        return (into,)
    return Tensor(n, (x,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy broadcasting over leading batch axes.

    Both operands must be at least 2-D; wrap vectors in an explicit
    trailing axis at the call site.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return Tensor(a.data @ b.data, (a, b), _binary_vjp(
        a, b, lambda g: g @ np.swapaxes(b.data, -1, -2),
        lambda g: np.swapaxes(a.data, -1, -2) @ g))


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    return Tensor(np.concatenate([p.data for p in parts], axis=axis),
                  tuple(parts), lambda g: tuple(np.split(g, splits, axis=axis)))


def moveaxis(x: Tensor, source: int, destination: int) -> Tensor:
    """``np.moveaxis`` as a C-ordered copy; the VJP moves the cotangent
    back, also as a C-ordered copy."""
    x = as_tensor(x)
    return Tensor(np.ascontiguousarray(np.moveaxis(x.data, source, destination)),
                  (x,), lambda g: (np.ascontiguousarray(
                      np.moveaxis(g, destination, source)),))


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-sum-exp over ``axis``, which is kept with
    length 1; the max shift is treated as data."""
    x = as_tensor(x)
    c = np.max(x.data, axis=axis, keepdims=True)
    c = np.where(np.isfinite(c), c, 0.0)
    shifted = x - constant(c)
    return log(exp(shifted).sum(axis=axis, keepdims=True)) + constant(c)


# ---- reverse pass -------------------------------------------------

def _toposort(root: Tensor) -> list[Tensor]:
    """``root`` and the nodes that need a gradient below it, parents first."""
    order: list[Tensor] = []
    seen: set[int] = {id(root)}
    stack: list[tuple[Tensor, object]] = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        for p in it:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            order.append(node)
            stack.pop()
    return order


def _materialize(into, shape: tuple[int, ...]) -> np.ndarray:
    """The cotangent a writer ``into(out, add)`` stands for, as an array."""
    out = np.empty(shape)
    into(out, False)
    return out


def backward(loss: Tensor, params: dict[str, Tensor]):
    """Accumulate d(loss)/d(node) into ``params``; return their gradients.

    ``loss`` must be scalar.  No constant ever receives a cotangent, and
    only leaves keep ``.grad``: each interior node's is dropped as soon as
    its VJP has run.  Gradients accumulate by the module docstring's two
    rules, a writer reaching an interior node being materialized first.
    The dict is keyed like ``params``: exact zeros for parameters the loss
    does not touch, and for packed ones their arena views, zero-filled if
    untouched, so the arena's ``grad`` holds the whole gradient until the
    next ``backward``.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    for t in params.values():
        t.grad = None
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        node.grad = None
        for p, g in zip(node._parents, grads):
            if g is None or not p.requires_grad:
                continue
            if p._vjp is not None:
                if callable(g):
                    g = _materialize(g, p.shape)
                p.grad = g if p.grad is None else p.grad + g
                continue
            add = p.grad is not None
            if not add:
                p.grad = (np.empty(p.shape) if p._grad_view is None
                          else p._grad_view)
            if callable(g):
                g(p.grad, add)
            elif add:
                p.grad += g
            else:
                np.copyto(p.grad, g)
    out = {}
    for k, t in params.items():
        if t.grad is None and t._grad_view is not None:
            t._grad_view.fill(0.0)
            t.grad = t._grad_view
        out[k] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return out


# ---- feedforward networks -----------------------------------------

_ACTIVATIONS = ("relu", "sigmoid", "linear")


def dense(x: Tensor, w: Tensor, b: Tensor, act: str) -> Tensor:
    """One fully connected layer ``act(x @ w.T + b)`` as a single node,
    computed in ``w``'s dtype: ``x`` is cast to it first, a no-op when both
    are float64.

    ``x`` (rows, in), ``w`` (out, in), ``b`` (out,); or a bank of P
    networks, ``w`` (P, out, in) and ``b`` (P, out), over ``x``
    (P, rows, in), one input per network, out (P, rows, out).  Slice k of
    the output and of each gradient is bitwise network k's alone.  The
    product, the bias and the activation share one fresh buffer, and the
    VJP needs only that output: the relu mask is ``out > 0`` and the
    sigmoid derivative ``out * (1 - out)``; it skips ``g @ w`` for a
    constant input.  Values, and the input and bias gradients, are bitwise
    those of the transpose, matmul, add and activation nodes it replaces.
    The weight gradient ``swapaxes(g) @ x`` is a writer: it writes with
    ``np.matmul(..., out=)`` and adds with one ``dgemm`` (beta = 1) per
    network on the Fortran view of the C-ordered target, so no array of
    the weight's size is built.  Written, it is bitwise the gradient of the
    weight-first product ``matmul(w, x.transpose()).transpose()``; added,
    it is bitwise that gradient added whenever BLAS sums the rows in one
    pass, and within rounding of it otherwise.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim < 2 or x.shape[:-2] != w.shape[:-2] \
            or x.shape[-1] != w.shape[-1]:
        raise ShapeError(f"dense input {x.shape} does not fit weights {w.shape}")
    if act not in _ACTIVATIONS:
        raise ShapeError(f"unknown activation {act!r}")
    xd = x.data.astype(w.data.dtype, copy=False)
    out = xd @ np.swapaxes(w.data, -1, -2)
    out += b.data[..., None, :]
    if act == "relu":
        np.maximum(out, 0.0, out=out)
    elif act == "sigmoid":
        # the formula of ``sigmoid``, evaluated in place
        den = np.abs(out)
        np.negative(den, out=den)
        np.exp(den, out=den)
        den += 1.0
        np.minimum(out, 0.0, out=out)
        np.exp(out, out=out)
        out /= den

    def vjp(g):
        if act == "relu":
            g = g * (out > 0.0)
        elif act == "sigmoid":
            g = g * out * (1.0 - out)
        gx = g @ w.data if x.requires_grad else None

        def into(gw, add):
            if not add:
                np.matmul(np.swapaxes(g, -1, -2), xd, out=gw)
                return
            from scipy.linalg.blas import dgemm
            for k in np.ndindex(gw.shape[:-2]):     # gw.T += x.T @ g
                dgemm(1.0, xd[k].T, g[k].T, beta=1.0, c=gw[k].T,
                      trans_b=True, overwrite_c=True)
        return (gx, into, g.sum(axis=-2))
    return Tensor(out, (x, w, b), vjp)


def xavier_uniform(fan_out: int, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_out, fan_in))


class StoredParams:
    """Parameter values read by name from a checkpoint's arrays.

    Passed where a model's constructors take a Generator, it builds every
    parameter as a constant over its stored array, until packing for
    training: nothing is drawn or copied.  A missing or misshapen array is
    a ``BundleError`` naming it.  No value is read: ``load_checkpoint``
    has checked them.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays = arrays

    def weights(self, name: str, shapes: list[tuple[int, int]],
                bank: int = 0) -> list[Tensor]:
        lead = (bank,) if bank else ()
        return [self._take(f"{name}.w{i}", lead + shape)
                for i, shape in enumerate(shapes)]

    def value(self, name: str, initial) -> Tensor:
        return self._take(name, np.shape(initial))

    def _take(self, name: str, shape: tuple[int, ...]) -> Tensor:
        if name not in self.arrays:
            raise BundleError("checkpoint missing parameter", field=name)
        arr = self.arrays[name]
        if arr.shape != shape:
            raise BundleError("checkpoint shape mismatch", field=name)
        return Tensor(arr, name=name)


class _DrawnParams:
    """Fresh values: Xavier-uniform weights drawn from ``rng`` in creation
    order, a bank's network by network as if its P networks were created
    one after another, and every other parameter at its initial value."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def weights(self, name: str, shapes: list[tuple[int, int]],
                bank: int = 0) -> list[Tensor]:
        nets = [[xavier_uniform(*shape, self.rng) for shape in shapes]
                for _ in range(max(bank, 1))]
        return [parameter(np.stack(layer) if bank else layer[0], f"{name}.w{i}")
                for i, layer in enumerate(zip(*nets))]

    def value(self, name: str, initial) -> Tensor:
        return parameter(initial, name)


def param_values(source) -> "StoredParams | _DrawnParams":
    """The value source a model constructor's ``rng`` argument names: a
    Generator as fresh draws from it, a source as it is."""
    if isinstance(source, np.random.Generator):
        return _DrawnParams(source)
    return source


@dataclass
class MlpParams:
    """A fully connected network, or a bank of P networks of one shape.

    ``weights[i]`` has shape (widths[i+1], widths[i]) and ``biases[i]``
    (widths[i+1],); a bank stacks its P networks' along a leading axis,
    (P, widths[i+1], widths[i]) and (P, widths[i+1]).  Activations are one
    of relu | sigmoid | linear, one tag per weight layer.  The arena and
    the checkpoint hold the weights, then the biases, in field order.
    """

    widths: list[int]
    weights: list[Tensor]
    biases: list[Tensor]
    activations: list[str]

    @property
    def bank(self) -> int:
        """P for a bank of P networks, 0 for one network."""
        return self.weights[0].shape[0] if self.weights[0].data.ndim == 3 else 0

    @classmethod
    def create(cls, widths: list[int], activations: list[str],
               rng, name: str, bank: int = 0,
               out_bias: np.ndarray | None = None) -> "MlpParams":
        """One network, or for ``bank`` > 0 a bank of that many: Xavier-uniform
        weights drawn from ``rng`` and zero biases, the output layer's
        ``out_bias`` if given, or a ``StoredParams``' arrays."""
        if len(activations) != len(widths) - 1:
            raise ShapeError("need one activation per weight layer")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ShapeError(f"unknown activation {a!r}")
        values = param_values(rng)
        shapes = list(zip(widths[1:], widths[:-1]))
        weights = values.weights(name, shapes, bank)
        lead = (bank,) if bank else ()
        initial = [np.zeros(lead + (n_out,)) for n_out, _ in shapes]
        if out_bias is not None:
            initial[-1] = np.broadcast_to(out_bias, initial[-1].shape).copy()
        biases = [values.value(f"{name}.b{i}", b)
                  for i, b in enumerate(initial)]
        return cls(list(widths), weights, biases, list(activations))


def mlp_forward(params: MlpParams, x) -> Tensor:
    """Run the activation chain on input with features along the last axis.

    A bank of P networks reads ``x`` as (P, ..., in), one input per
    network, and returns (P, ..., out).  Every leading axis but the bank's
    is folded into one row axis on entry and restored on exit, so each
    layer is one ``dense`` node: one (rows, in) @ (in, out) product per
    network.  Input already in that form runs without the reshapes.
    """
    x = as_tensor(x)
    if x.shape[-1] != params.widths[0]:
        raise ShapeError(
            f"input width {x.shape[-1]} != expected {params.widths[0]}")
    lead = x.shape[:-1]
    keep = 1 if params.bank else 0          # leading axes not rows
    fold = x.data.ndim != keep + 2
    if fold:
        x = x.reshape(x.shape[:keep] + (-1, x.shape[-1]))
    for w, b, act in zip(params.weights, params.biases, params.activations):
        x = dense(x, w, b, act)
    if fold:
        x = x.reshape(x.shape[:-2] + lead[keep:] + (x.shape[-1],))
    return x


# ---- optimizer -----------------------------------------------------

class ParamArena:
    """A set of parameters and their Adam state, in flat float64 buffers.

    Packing copies each tensor's values into ``values``, in dict order, and
    rebinds the tensor's ``.data`` to its view of that buffer; it also gives
    the tensor its view of ``grad``, a matching buffer that ``backward``
    fills, and marks it as needing a gradient.  ``m`` and ``v`` hold Adam's
    moments in the same order and ``step`` counts its updates.  ``params``
    and ``grads`` map each name to its value view and its gradient view.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.names = list(params)
        self._spans = []
        stop = 0
        for name in self.names:
            shape = params[name].data.shape
            start, stop = stop, stop + math.prod(shape)
            self._spans.append((name, start, stop, shape))
        self.size = stop
        self.values = np.empty(self.size)
        self.grad = np.zeros(self.size)
        self.grads = self.views(self.grad)
        self.params = self.views(self.values)
        for name, view in self.params.items():
            t = params[name]
            view[...] = t.data
            t.data = view
            t._grad_view = self.grads[name]
            t.requires_grad = True
        # allocated after packing frees the old arrays: 2 MB less peak RSS
        self.m = np.zeros(self.size)
        self.v = np.zeros(self.size)
        self.step = 0

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of an arena-sized flat buffer, shaped like the parameter."""
        return {name: flat[start:stop].reshape(shape)
                for name, start, stop, shape in self._spans}


# Adam's decay rates and denominator offset (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per block of the flat Adam update: the four flat buffers and
# two scratch blocks of 32K float64 each, 1.5 MiB, fit in a 2 MiB L2 cache.
_ADAM_BLOCK = 1 << 15


def adam_step(store: ParamArena, lr: float) -> None:
    """Adam with bias correction, in place on the arena ``store``.

    The bias corrections are folded into the step size and the offset, as
    Kingma & Ba ("Adam", ICLR 2015, sec. 2) suggest: with
    bc1 = 1 - beta1^t and bc2 = 1 - beta2^t,

        m <- beta1 m + (1 - beta1) g,   v <- beta2 v + (1 - beta2) g^2,
        theta <- theta - alpha_t m / (sqrt(v) + eps_hat),

    where alpha_t = lr sqrt(bc2) / bc1 and eps_hat = eps sqrt(bc2), which
    is the textbook lr m_hat / (sqrt(v_hat) + eps) up to rounding.  The
    update runs over the flat buffers in cache-sized blocks, nine passes
    each: ``dscal`` and ``daxpy`` for the moments, one ``daxpy`` for the
    parameters.

    ``lr`` must be positive and finite.  The gradient is the arena's flat
    ``grad``, as ``backward`` of the packed parameters leaves it.  It is
    checked whole before anything changes, by one dot product with itself
    and, only when that is not finite, an exact scan: a non-finite entry
    raises ``TrainingError`` naming the first such entry in arena order, by
    parameter and index, with the parameters, moments and step as they
    were; finite entries whose squares overflow the dot proceed.
    """
    if not 0.0 < lr < math.inf:
        raise ContractError(f"learning rate must be positive and finite, "
                            f"got {lr}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.dot(store.grad, store.grad)
    if not math.isfinite(total) and not np.isfinite(store.grad).all():
        bad = next(n for n in store.names
                   if not np.isfinite(store.grads[n]).all())
        index = np.argwhere(~np.isfinite(store.grads[bad]))[0]
        raise TrainingError("non-finite gradient", param=bad,
                            index=tuple(int(i) for i in index))
    from scipy.linalg.blas import daxpy, dscal
    store.step += 1
    t = store.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    alpha = lr * math.sqrt(bc2) / bc1
    eps_hat = ADAM_EPS * math.sqrt(bc2)
    n = store.size
    tmp_buf = np.empty(min(n, _ADAM_BLOCK))
    den_buf = np.empty_like(tmp_buf)
    for start in range(0, n, _ADAM_BLOCK):
        stop = min(start + _ADAM_BLOCK, n)
        g = store.grad[start:stop]
        m, v = store.m[start:stop], store.v[start:stop]
        tmp, den = tmp_buf[:stop - start], den_buf[:stop - start]
        dscal(b1, m)
        daxpy(g, m, a=1.0 - b1)
        dscal(b2, v)
        np.multiply(g, g, out=tmp)
        daxpy(tmp, v, a=1.0 - b2)
        np.sqrt(v, out=den)
        den += eps_hat
        np.divide(m, den, out=tmp)
        daxpy(tmp, store.values[start:stop], a=-alpha)


def lr_schedule(epoch: int) -> float:
    """0.001 decayed by 0.9 each epoch, held constant from epoch 10 on."""
    if epoch < 0:
        raise ContractError(f"epoch must be >= 0, got {epoch}")
    return 0.001 * 0.9 ** min(epoch, 10)


# ---- loading parameters ---------------------------------------------

def load_params_into(params: dict[str, Tensor], arrays: dict[str, np.ndarray]):
    """Copy checkpoint arrays into live parameter tensors, by name.

    Every name and shape is checked before any value is written (the
    values themselves ``load_checkpoint`` checks).  Values are written into
    each tensor's own buffer, so a packed parameter stays a view of its
    arena.
    """
    stored = StoredParams(arrays)
    values = [stored.value(name, t.data) for name, t in params.items()]
    for t, value in zip(params.values(), values):
        t.data[...] = value.data
