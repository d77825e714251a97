import json
import os
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import special as sp

from unmix import data as dt
from unmix import diffcore as dc
from unmix import inference
from unmix.distributions import SIMPLEX_EPS
from unmix.errors import ContractError


def fd_param_grads(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Central finite differences of loss_fn() w.r.t. every parameter entry.

    Entries are nudged in place (0-d parameters too), so a parameter packed
    in an arena stays the arena's view.
    """
    out = {}
    for name, t in params.items():
        g = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = t.data[ix]
            t.data[ix] = old + h
            lp = loss_fn()
            t.data[ix] = old - h
            lm = loss_fn()
            t.data[ix] = old
            g[ix] = (lp - lm) / (2 * h)
        out[name] = g
    return out


def max_rel_err(analytic: dict, numeric: dict, floor: float | None = None) -> float:
    """Largest elementwise relative error with a scale-aware floor.

    The floor defaults to 1e-6 of the largest gradient magnitude, so
    near-zero entries are judged on an absolute scale the FD oracle can
    actually resolve in double precision.
    """
    if floor is None:
        scale = max(float(np.max(np.abs(np.asarray(g)))) if np.asarray(g).size
                    else 0.0 for g in analytic.values())
        floor = max(1e-6 * scale, 1e-9)
    worst = 0.0
    for name in analytic:
        a = np.asarray(analytic[name])
        n = np.asarray(numeric[name])
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def save_stack(base: str, stack, width: int, height: int):
    """Write a per-pixel (N, P, L) endmember stack whole, through the one
    writer of such stacks, ``data.endmember_writer``."""
    _, p, bands = np.shape(stack)
    with dt.endmember_writer(base, width, height, bands, p) as out:
        out.append(stack)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_mlp(widths, activations, seed=0, name="net"):
    return dc.MlpParams.create(widths, activations,
                               np.random.default_rng(seed), name)


def zero_mlp(net: dc.MlpParams):
    """Zero every weight and bias in place."""
    for t in (*net.weights, *net.biases):
        t.data[...] = 0.0
    return net


def one_network(bank: dc.MlpParams, k: int) -> dc.MlpParams:
    """Network k of a bank as a network of its own, over views of the
    bank's arrays."""
    return dc.MlpParams(bank.widths,
                        [dc.constant(w.data[k]) for w in bank.weights],
                        [dc.constant(b.data[k]) for b in bank.biases],
                        bank.activations)


def scale_mlp(net: dc.MlpParams, factor: float):
    """Multiply every weight and bias by ``factor`` in place."""
    for t in (*net.weights, *net.biases):
        t.data *= factor
    return net


class ReplayNoise:
    """Noise source that records one sampling pass, then replays it.

    In replay mode Gaussian draws are returned verbatim while Dirichlet
    draws are recomputed from the frozen uniform base through the Beta
    inverse cdf, so the sample varies smoothly with the concentration and
    a loss becomes a deterministic function of the parameters, fit for
    finite differences.  Only two-component Dirichlets support a frozen
    base.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.recording = True
        self._normals: list[np.ndarray] = []
        self._bases: list[np.ndarray] = []
        self._ni = 0
        self._bi = 0

    def rewind(self):
        self.recording = False
        self._ni = 0
        self._bi = 0

    def normal(self, shape) -> np.ndarray:
        if self.recording:
            x = self.rng.standard_normal(shape)
            self._normals.append(x)
            return x
        x = self._normals[self._ni]
        self._ni += 1
        if x.shape != tuple(np.atleast_1d(shape)) and x.shape != shape:
            raise ContractError("replayed noise shape mismatch")
        return x

    def dirichlet(self, conc: np.ndarray) -> np.ndarray:
        if conc.shape[-1] != 2:
            raise ContractError("frozen Dirichlet base requires two components")
        if self.recording:
            u = self.rng.uniform(size=conc.shape[:-1])
            self._bases.append(u)
        else:
            u = self._bases[self._bi]
            self._bi += 1
        a0 = sp.betaincinv(conc[..., 0], conc[..., 1], u)
        a0 = np.clip(a0, SIMPLEX_EPS, 1.0 - SIMPLEX_EPS)
        return np.stack([a0, 1.0 - a0], axis=-1)


class PinnedStarts:
    """Stand-in for the warm-start solve: records its results in call
    order, then replays them on later passes."""

    def __init__(self, solve):
        self.solve = solve
        self.store: list[np.ndarray] = []
        self.pos = 0

    def rewind(self):
        self.pos = 0

    def take(self, gram: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.pos == len(self.store):
            self.store.append(self.solve(gram, b))
        self.pos += 1
        return self.store[self.pos - 1]


@pytest.fixture
def pinned_warm_starts(monkeypatch):
    """Freeze the unrolled stream's warm starts across repeated passes.

    The reverse pass treats the least-squares warm start as per-pass data,
    so finite-difference verification must hold it fixed the same way the
    recorded noise is held fixed.  Returns a context manager; inside it
    ``inference._least_squares_start`` is a ``PinnedStarts``, which it
    yields.  Call ``rewind()`` before each replayed evaluation.
    """
    @contextmanager
    def pin():
        starts = PinnedStarts(inference._least_squares_start)
        with monkeypatch.context() as patch:
            patch.setattr(inference, "_least_squares_start", starts.take)
            yield starts
    return pin


def _leaves(obj, name: str = ""):
    """(path, value) of every leaf of nested dicts and lists."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{name}.{key}" if name else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{name}[{i}]")
    else:
        yield name, obj


def changed_entries(path: str, record: dict) -> list[str]:
    """The entries of ``record`` that differ from the golden JSON file at
    ``path``, or are missing from it or from ``record``, in sorted order;
    every entry when the file does not exist."""
    old = {}
    if os.path.exists(path):
        with open(path) as f:
            old = dict(_leaves(json.load(f)))
    new = dict(_leaves(record))
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def _is_sha256(value) -> bool:
    return (isinstance(value, str) and len(value) == 64
            and all(c in "0123456789abcdef" for c in value))


def change_summary(path: str, record: dict) -> str:
    """``changed_entries`` told for a reader: one line with the count of
    moved entries per top-level key that moved (``losses 3/3,
    grads_sha256 150/153``), then a line ``name: old -> new`` for each
    moved entry that is not a sha256 digest; "no change" if none moved."""
    old = {}
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
    changed = set(changed_entries(path, record))
    counts = []
    for key in sorted(old.keys() | record.keys()):
        names = {name for side in (old, record) if key in side
                 for name, _ in _leaves(side[key], key)}
        if names & changed:
            counts.append(f"{key} {len(names & changed)}/{len(names)}")
    old_leaves, new_leaves = dict(_leaves(old)), dict(_leaves(record))
    values = [f"{name}: {old_leaves.get(name)} -> {new_leaves.get(name)}"
              for name in sorted(changed)
              if not (_is_sha256(old_leaves.get(name))
                      or _is_sha256(new_leaves.get(name)))]
    return "\n".join([", ".join(counts)] + values) if changed else "no change"
