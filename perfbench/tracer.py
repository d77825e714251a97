"""Span tracer that wraps public functions of the ``unmix`` package from outside.

Every binding of a wrapped function is replaced, in every loaded ``unmix``
module, so a caller that imported the function by name (``objective`` calls
``backward`` that way) is traced as well as one that looks it up on the
module (``dc.save_checkpoint``).  Spans stay in memory as parallel lists and
are summarised once the traced phase ends.  Tensor-level ops (``matmul``,
``exp``, ...) are not wrapped: their time is self time of the caller.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import tracemalloc

LAYERS = ("cli", "data", "diffcore", "distributions", "generative",
          "inference", "objective", "evaluation")

TARGETS = {
    "cli": ("main", "cmd_unmix", "cmd_eval"),
    "data": ("load_cube", "save_cube", "load_abundances", "save_abundances",
             "load_endmembers", "save_endmembers", "load_scalar_map",
             "save_scalar_map"),
    "diffcore": ("backward", "adam_step", "mlp_forward", "save_checkpoint",
                 "load_checkpoint", "load_params_into"),
    "distributions": ("gaussian_logpdf", "std_normal_logpdf",
                      "gaussian_rsample", "dirichlet_logpdf",
                      "dirichlet_rsample"),
    "generative": ("em_decode", "mixing_mean", "log_likelihood",
                   "flat_abundance_logpdf"),
    "inference": ("encode_z", "lista_concentration", "abundance_streams",
                  "abundance_concentration", "posterior_sample",
                  "point_estimates", "init_model"),
    "objective": ("train", "total_loss", "unsup_term", "sup_term",
                  "sparsity_penalty", "network_norm_penalty"),
    "evaluation": ("evaluate", "align_endmembers", "nonlinearity_degree"),
}

# Peak traced allocation is taken around these calls when alloc tracking
# is on (tracemalloc slows them, so it is only turned on in untimed phases).
ALLOC_TARGETS = frozenset({"inference.point_estimates",
                           "generative.mixing_mean",
                           "evaluation.nonlinearity_degree"})

# data-layer calls whose first argument is a bundle base path.
_SAVES = frozenset(f"data.{n}" for n in TARGETS["data"] if n.startswith("save_"))
_LOADS = frozenset(f"data.{n}" for n in TARGETS["data"] if n.startswith("load_"))


def _bundle_bytes(base: str) -> int:
    return sum(os.path.getsize(base + ext) for ext in (".json", ".raw")
               if os.path.exists(base + ext))


class Tracer:
    """Records (name, start, end, parent, op) for every wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = 0
        self.active = True
        self.track_alloc = False
        self.alloc_peak_mb: dict[str, float] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------

    def _wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self.stack
        clock = time.perf_counter
        tracer = self
        is_save, is_load = name in _SAVES, name in _LOADS
        track_alloc = name in ALLOC_TARGETS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            alloc = (track_alloc and tracer.track_alloc
                     and not tracemalloc.is_tracing())
            if alloc:
                tracemalloc.start()
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    tracer.alloc_peak_mb[name] = max(
                        peak, tracer.alloc_peak_mb.get(name, 0.0))
                if is_save:
                    tracer.bytes_written += _bundle_bytes(args[0])
                elif is_load:
                    tracer.bytes_read += _bundle_bytes(args[0])
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span for the benchmark's own work inside a traced phase."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Leave the benchmark's own checks out of the trace."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def clear(self):
        for lst in (self.names, self.starts, self.ends, self.parents, self.ops):
            lst.clear()
        self.op = 0
        self.bytes_written = self.bytes_read = 0

    # ---- patching --------------------------------------------------

    def install(self):
        """Wrap every TARGETS function at each of its bindings in ``unmix``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "unmix" or n.startswith("unmix."))]
        for layer, fns in TARGETS.items():
            home = sys.modules[f"unmix.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # ---- summary ---------------------------------------------------

    def summary(self) -> dict:
        """Per-name call count, inclusive and self seconds, and per-op calls."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                      "calls_per_op": {}})
            s["calls"] += 1
            s["incl_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            per_op = s["calls_per_op"]
            per_op[self.ops[i]] = per_op.get(self.ops[i], 0) + 1
        return out

    def top_level_s(self, names: set[str]) -> float:
        """Summed duration of spans named in ``names`` that have no ancestor
        among ``names`` (the step or command spans)."""
        total = 0.0
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in names:
                p = self.parents[p]
            if p < 0:
                total += self.ends[i] - self.starts[i]
        return total
