"""Differentiable numerical core.

Dense float64 tensors with reverse-mode accumulation over a per-loss
recorded graph, small feedforward networks, the Adam update, and the
learning-rate schedule used by the training loop.  Graphs are rebuilt
for every loss evaluation; only parameter tensors persist.  Inside
``no_grad()`` nothing is recorded, so forward-only passes keep no graph.

Training packs the parameters into a ``ParamArena``, owned by the
``AdamState`` that ``AdamState.create`` builds: one contiguous float64
buffer of values, in parameter-dict order, with every tensor's ``.data`` a
view into it, and a matching gradient buffer.  ``backward`` writes each
packed leaf's gradient into its view of that buffer, and Adam updates the
flat buffers.  From packing on, code must write parameters in place
(``t.data[...] = x``) and never rebind ``.data``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .errors import BundleError, ContractError, ShapeError, TrainingError

# Checkpoints live in ``container``.  The benchmark under perfbench/ still
# calls and wraps them as diffcore names; drop this line once it does not.
from .container import load_checkpoint, save_checkpoint  # noqa: F401

__all__ = [
    "Tensor", "as_tensor", "constant", "parameter",
    "relu", "sigmoid", "exp", "log", "lgamma", "clip", "matmul", "dense",
    "l2norm", "concat", "stack_last", "logsumexp",
    "backward", "no_grad", "MlpParams", "mlp_forward",
    "ParamArena", "AdamState", "adam_step", "lr_schedule", "xavier_uniform",
    "StoredParams", "param_values",
]


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


_recording = True


@contextmanager
def no_grad():
    """Run forward-only: tensors made inside record no parents and no VJP.

    Values are computed by the same operations as in recording mode, so
    they are bitwise identical; every intermediate is freed as soon as the
    next op has consumed it.  Contexts nest, and the previous mode is
    restored on exit, also when the body raises.  The mode is process-wide.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A float64 array recorded on a dynamically built computation graph.

    ``parents`` and ``vjp`` describe how to push a cotangent back to the
    inputs; leaves (constants and parameters) have neither, and neither
    does any tensor made inside ``no_grad()``.  A parameter packed into a
    ``ParamArena`` also holds its view of the arena's gradient buffer.
    """

    __slots__ = ("data", "grad", "name", "_parents", "_vjp", "_grad_view")

    def __init__(self, data, parents=(), vjp=None, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name
        self._grad_view: np.ndarray | None = None
        if _recording:
            self._parents: tuple[Tensor, ...] = parents
            self._vjp = vjp
        else:
            self._parents = ()
            self._vjp = None

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

        def vjp(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))
        return Tensor(self.data + other.data, (self, other), vjp)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)

        def vjp(g):
            return (_unbroadcast(g * other.data, self.shape),
                    _unbroadcast(g * self.data, other.shape))
        return Tensor(self.data * other.data, (self, other), vjp)

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __truediv__(self, other):
        other = as_tensor(other)

        def vjp(g):
            return (_unbroadcast(g / other.data, self.shape),
                    _unbroadcast(-g * self.data / other.data ** 2, other.shape))
        return Tensor(self.data / other.data, (self, other), vjp)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, p: float):
        return Tensor(self.data ** p, (self,),
                      lambda g: (g * p * self.data ** (p - 1),))

    # ---- shape ops ------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(self.data.reshape(shape), (self,),
                      lambda g: (g.reshape(self.shape),))

    def __getitem__(self, index) -> "Tensor":
        """Basic indexing by ints, slices and Ellipsis; the VJP scatters
        the cotangent into zeros of the input's shape."""
        for i in index if isinstance(index, tuple) else (index,):
            if isinstance(i, bool) or not (
                    i is Ellipsis or isinstance(i, (int, np.integer, slice))):
                raise ContractError(f"Tensor indices must be ints, slices or "
                                    f"Ellipsis, got {type(i).__name__}")

        def vjp(g):
            full = np.zeros_like(self.data)
            full[index] = g
            return (full,)
        return Tensor(self.data[index], (self,), vjp)

    def transpose(self, axes=None) -> "Tensor":
        if axes is None:
            axes = tuple(range(self.data.ndim - 2)) + (-1, -2)
        axes = tuple(a % self.data.ndim for a in axes)
        inv = np.argsort(axes)
        return Tensor(self.data.transpose(axes), (self,),
                      lambda g: (g.transpose(inv),))

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
        n = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A graph leaf that never receives a gradient name."""
    return Tensor(x)


def parameter(x, name: str) -> Tensor:
    return Tensor(np.array(x, dtype=np.float64), name=name)


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
    x = as_tensor(x)
    return Tensor(_sp.gammaln(x.data), (x,),
                  lambda g: (g * _sp.digamma(x.data),))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient strictly inside (lo, hi)."""
    x = as_tensor(x)
    return Tensor(np.clip(x.data, lo, hi), (x,),
                  lambda g: (g * ((x.data > lo) & (x.data < hi)),))


def l2norm(x: Tensor) -> Tensor:
    """Euclidean norm of all entries, with subgradient 0 at the origin."""
    x = as_tensor(x)
    n = float(np.sqrt((x.data * x.data).sum()))
    return Tensor(n, (x,), lambda g: (g * x.data / max(n, 1e-300),))


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

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return (ga, gb)
    return Tensor(a.data @ b.data, (a, b), vjp)


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    return Tensor(np.concatenate([p.data for p in parts], axis=axis),
                  tuple(parts), lambda g: tuple(np.split(g, splits, axis=axis)))


def stack_last(parts: list[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new trailing axis (matrix columns)."""
    return concat([p.reshape(p.shape + (1,)) for p in parts], axis=-1)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp; the max shift is treated as data."""
    x = as_tensor(x)
    c = np.max(x.data, axis=axis, keepdims=True)
    c = np.where(np.isfinite(c), c, 0.0)
    shifted = x - constant(c)
    out = log(exp(shifted).sum(axis=axis, keepdims=True)) + constant(c)
    if not keepdims:
        out = out.reshape(tuple(s for i, s in enumerate(out.shape)
                                if i != axis % x.data.ndim))
    return out


# ---- reverse pass -------------------------------------------------

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = {id(root)}
    stack: list[tuple[Tensor, object]] = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        descended = False
        for p in it:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                descended = True
                break
        if not descended:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Tensor, params: dict[str, Tensor] | None = None):
    """Accumulate d(loss)/d(node) into the leaves reachable from ``loss``.

    ``loss`` must be scalar.  Only leaves keep ``.grad``: each interior
    node's cotangent is dropped as soon as its VJP has run.  A leaf packed
    into a ``ParamArena`` receives its first contribution as a copy into
    its view of the arena's gradient buffer and later ones added in place;
    any other leaf's first contribution aliases the VJP output.  When
    ``params`` is given, returns a dict of gradients keyed like ``params``;
    parameters not touched by the loss get exact zeros.  For packed
    parameters these are the arena's gradient views, valid until the next
    ``backward``.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    for t in (params or {}).values():
        t.grad = None
    loss.grad = np.ones_like(loss.data)
    # Gradients this pass may add to in place: arena views, and fresh sums.
    # An unpacked node's first contribution aliases the VJP output, which
    # may be shared, so a second one replaces it with a fresh sum.
    owned: set[int] = set()
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        node.grad = None
        for p, g in zip(node._parents, grads):
            if g is None:
                continue
            if p.grad is None:
                if p._grad_view is None:
                    p.grad = g
                else:
                    np.copyto(p._grad_view, g)
                    p.grad = p._grad_view
                    owned.add(id(p))
            elif id(p) in owned:
                p.grad += g
            else:
                p.grad = p.grad + g
                owned.add(id(p))
    if params is None:
        return None
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
    """One fully connected layer ``act(x @ w.T + b)`` as a single node.

    ``x``: (rows, in); ``w``: (out, in); ``b``: (out,).  The product, the
    bias and the activation share one fresh (rows, out) buffer, and the VJP
    needs only that output: the relu mask is ``out > 0`` and the sigmoid
    derivative ``out * (1 - out)``.  Values and gradients are bitwise those
    of the transpose, matmul, add and activation nodes it replaces.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"dense needs (rows, {w.shape[1]}) input, got {x.shape}")
    if act not in _ACTIVATIONS:
        raise ShapeError(f"unknown activation {act!r}")
    out = x.data @ w.data.T
    out += b.data
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
        return (g @ w.data, (x.data.T @ g).T, g.sum(axis=0))
    return Tensor(out, (x, w, b), vjp)


def xavier_uniform(fan_out: int, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_out, fan_in))


class StoredParams:
    """Parameter values read by name from a checkpoint's arrays.

    Passed where a model's constructors take a Generator, it builds every
    parameter as a tensor over its stored array: nothing is drawn or
    copied.  A missing or misshapen array is a ``BundleError`` naming it.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays = arrays

    def weight(self, name: str, n_out: int, n_in: int) -> Tensor:
        return self._take(name, (n_out, n_in))

    def value(self, name: str, initial) -> Tensor:
        return self._take(name, np.shape(initial))

    def _take(self, name: str, shape: tuple[int, ...]) -> Tensor:
        if name not in self.arrays:
            raise BundleError("checkpoint missing parameter", field=name)
        if self.arrays[name].shape != shape:
            raise BundleError("checkpoint shape mismatch", field=name)
        return Tensor(self.arrays[name], name=name)


class _DrawnParams:
    """Fresh values: Xavier-uniform weights drawn from ``rng`` in creation
    order, every other parameter at its given initial value."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def weight(self, name: str, n_out: int, n_in: int) -> Tensor:
        return parameter(xavier_uniform(n_out, n_in, self.rng), name)

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
    """Fully connected network: widths, per-layer weights/biases/activations.

    ``weights[i]`` has shape (widths[i+1], widths[i]); activations are one
    of relu | sigmoid | linear, one tag per weight layer.
    """

    widths: list[int]
    weights: list[Tensor]
    biases: list[Tensor]
    activations: list[str]

    @classmethod
    def create(cls, widths: list[int], activations: list[str],
               rng, name: str) -> "MlpParams":
        """Xavier-uniform weights drawn from ``rng`` and zero biases, or
        with a ``StoredParams`` for ``rng``, the stored arrays."""
        if len(activations) != len(widths) - 1:
            raise ShapeError("need one activation per weight layer")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ShapeError(f"unknown activation {a!r}")
        values = param_values(rng)
        weights, biases = [], []
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            weights.append(values.weight(f"{name}.w{i}", n_out, n_in))
            biases.append(values.value(f"{name}.b{i}", np.zeros(n_out)))
        return cls(list(widths), weights, biases, list(activations))

    def named_parameters(self) -> dict[str, Tensor]:
        out = {}
        for t in (*self.weights, *self.biases):
            out[t.name] = t
        return out


def mlp_forward(params: MlpParams, x) -> Tensor:
    """Run the activation chain on input with features along the last axis.

    Any leading axes are folded into one row axis on entry and restored on
    exit, so each layer is one ``dense`` node: a single (rows, in) @ (in, out)
    product whose weight gradient is one ``x.T @ g`` product.  2-D input
    runs without the reshapes.
    """
    x = as_tensor(x)
    if x.shape[-1] != params.widths[0]:
        raise ShapeError(
            f"input width {x.shape[-1]} != expected {params.widths[0]}")
    lead = x.shape[:-1]
    fold = x.data.ndim != 2
    if fold:
        x = x.reshape((-1, x.shape[-1]))
    for w, b, act in zip(params.weights, params.biases, params.activations):
        x = dense(x, w, b, act)
    if fold:
        x = x.reshape(lead + (x.shape[-1],))
    return x


# ---- optimizer -----------------------------------------------------

class ParamArena:
    """The values of a set of parameters in one contiguous float64 buffer.

    Packing copies each tensor's values into ``values``, in dict order, and
    rebinds the tensor's ``.data`` to its view of that buffer; it also gives
    the tensor its view of ``grad``, a matching buffer that ``backward``
    fills.  ``params`` and ``grads`` map each name to its value view and
    its gradient view.
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

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of an arena-sized flat buffer, shaped like the parameter."""
        return {name: flat[start:stop].reshape(shape)
                for name, start, stop, shape in self._spans}

    def snapshot(self) -> dict[str, np.ndarray]:
        """Name -> view of one copy of the current values."""
        return self.views(self.values.copy())


@dataclass
class AdamState:
    """Adam moments and step counter over a ``ParamArena`` that it owns.

    ``create`` packs the parameters into the arena; ``m_flat`` and
    ``v_flat`` are the arena-sized moment buffers, and ``m`` and ``v`` map
    each name to its view of them.
    """

    arena: ParamArena
    m_flat: np.ndarray
    v_flat: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict[str, np.ndarray] = field(init=False)
    v: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        self.m = self.arena.views(self.m_flat)
        self.v = self.arena.views(self.v_flat)

    @classmethod
    def create(cls, params: dict[str, Tensor], **kw) -> "AdamState":
        arena = ParamArena(params)
        return cls(arena, np.zeros(arena.size), np.zeros(arena.size), **kw)


# Elements per block of the flat Adam update: the four flat buffers and
# two scratch blocks of 64K float64 each fit in a 4 MiB L2 cache.
_ADAM_BLOCK = 1 << 16


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> AdamState:
    """Standard Adam update with bias correction, in place on the arena.

    ``params`` must be the tensors packed in ``state.arena``.  A gradient
    that is not already the arena's view is copied into it.  The whole flat
    gradient is checked before anything changes, so a non-finite entry
    raises ``TrainingError`` naming the first such parameter in arena order,
    with the parameters, moments and step as they were.  The update runs
    over the flat buffers in cache-sized blocks, with the same operations
    in the same order as per tensor.
    """
    if lr <= 0:
        raise ContractError(f"learning rate must be positive, got {lr}")
    arena = state.arena
    for name in arena.names:
        if params[name].data is not arena.params[name]:
            raise ContractError(f"parameter {name} is not packed in the "
                                "optimizer's arena")
        view, g = arena.grads[name], grads[name]
        if g is not view:
            np.copyto(view, g)
    if not np.isfinite(arena.grad).all():
        bad = next(n for n in arena.names
                   if not np.isfinite(arena.grads[n]).all())
        raise TrainingError("non-finite gradient", param=bad)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    n = arena.size
    step_buf = np.empty(min(n, _ADAM_BLOCK))
    den_buf = np.empty_like(step_buf)
    for start in range(0, n, _ADAM_BLOCK):
        stop = min(start + _ADAM_BLOCK, n)
        g = arena.grad[start:stop]
        m, v = state.m_flat[start:stop], state.v_flat[start:stop]
        step, den = step_buf[:stop - start], den_buf[:stop - start]
        m *= b1
        np.multiply(g, 1 - b1, out=step)        # (1 - b1) * g
        m += step
        np.multiply(g, 1 - b2, out=step)        # ((1 - b2) * g) * g
        step *= g
        v *= b2
        v += step
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += state.eps
        step /= den
        arena.values[start:stop] -= step
    return state


def lr_schedule(epoch: int) -> float:
    """0.001 decayed by 0.9 each epoch, held constant from epoch 10 on."""
    if epoch < 0:
        raise ContractError(f"epoch must be >= 0, got {epoch}")
    return 0.001 * 0.9 ** min(epoch, 10)


# ---- loading parameters ---------------------------------------------

def load_params_into(params: dict[str, Tensor], arrays: dict[str, np.ndarray]):
    """Copy checkpoint arrays into live parameter tensors, by name.

    Every name and shape is checked before any value is written.  Values are
    written into each tensor's own buffer, so a packed parameter stays a
    view of its arena.
    """
    for name, t in params.items():
        if name not in arrays:
            raise BundleError("checkpoint missing parameter", field=name)
        if arrays[name].shape != t.data.shape:
            raise BundleError("checkpoint shape mismatch", field=name)
    for name, t in params.items():
        t.data[...] = arrays[name]
