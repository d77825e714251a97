"""One workload in one fresh process: set up, run the timed phase, check.

``run.py`` starts this script once per sample and reads the JSON it writes
to ``--result``.  With ``--role setup`` the process stops after set-up and
the determinism probe; with ``--role main`` it also runs the timed phase and
the correctness checks, traced when ``--trace 1``.

Set-up time runs from ``--spawned-at`` (the parent's ``time.monotonic()``
just before it started this process) to the first timed operation, so it
includes interpreter start and the ``unmix`` import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

# Generated scenes and the work quota of each workload.  ``rate`` is the
# seed-state speed on 2 vCPU with one BLAS thread; the quota is fixed from it
# and ``--seconds``, so a faster program finishes the same work sooner.
WORKLOADS = {
    "train-dc1-b16": dict(kind="dc1", width=30, height=30, bands=64, p=3,
                          n_ppx=20, n_draws=20, batch=16, rate=30.0),
    "train-dc2-b64": dict(kind="dc2", width=64, height=64, bands=224, p=5,
                          n_ppx=20, n_draws=20, batch=64, rate=3.5),
    "unmix-dc2-10k": dict(kind="dc2", width=100, height=100, bands=224, p=5,
                          op_s=4.5),
}
TINY = {
    "train-dc1-b16": dict(width=12, height=12, bands=16, n_ppx=5, n_draws=4),
    "train-dc2-b64": dict(width=12, height=12, bands=24, n_ppx=5, n_draws=4),
    "unmix-dc2-10k": dict(width=16, height=16, bands=24),
}
MIN_STEPS = 100        # a p90 with ten samples beyond it
MIN_OPS = 3
TINY_STEPS = 8
TINY_OPS = 2
PROBE_STEPS = 3        # training steps hashed by the determinism probe
PROBE_PIXELS = 256     # pixels hashed by the unmix determinism probe
EVAL_REPEATS = 3       # unmix+eval runs on the trained model after one
                       # warm-up; eval_s is their median
LATENT_DIM = 2
LISTA_LAYERS = 11
SIMPLEX_TOL = 1e-6

TRAIN_TOP = {"objective.total_loss", "diffcore.backward", "diffcore.adam_step"}
UNMIX_TOP = {"cli.main"}


class _QuotaReached(Exception):
    """Raised after the last step of the quota to leave ``train``."""


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _dir_digest(directory: str) -> str:
    """Hash of every file but manifests, which hold wall-clock times."""
    return _digest(os.path.join(directory, n) for n in os.listdir(directory)
                   if not n.endswith("manifest.json"))


def _os_threads() -> int:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caps = {v: os.environ.get(v) for v in (
        "UNMIX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_caps": caps, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed}


class Run:
    """Shared state of one child: outcome counters, checks and digests."""

    def __init__(self, args):
        from unmix import cli
        self.cli = cli
        self.args = args
        self.seed = args.seed
        self.spec = dict(WORKLOADS[args.workload])
        if args.size == "tiny":
            self.spec.update(TINY[args.workload])
        self.work = args.workdir
        self.scene = os.path.join(self.work, "scene")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict = {}
        self.digests: dict = {}
        self.tracer = None

    def must(self, argv: list[str]):
        rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {rc}")

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    def generate(self):
        s = self.spec
        self.must(["generate", s["kind"], self.scene, "--seed", str(self.seed),
                   "--width", str(s["width"]), "--height", str(s["height"]),
                   "--bands", str(s["bands"]), "--endmembers", str(s["p"])])

    def check_outputs(self, out_dir: str, n_px: int) -> bool:
        """Finite outputs and simplex abundance rows; False on a failure."""
        from unmix import data as dt
        import numpy as np
        a, _, _ = dt.load_abundances(os.path.join(out_dir, "abundances_est"))
        arrays = {
            "abundances_est": a,
            "endmembers_est": dt.load_endmembers(
                os.path.join(out_dir, "endmembers_est")),
            "eta_d": dt.load_scalar_map(os.path.join(out_dir, "eta_d")),
            "reconstruction": dt.load_cube(
                os.path.join(out_dir, "reconstruction")).pixels,
        }
        finite = all(bool(np.all(np.isfinite(v))) for v in arrays.values())
        simplex_err = float(max(np.abs(a.sum(axis=1) - 1.0).max(),
                                -min(a.min(), 0.0)))
        ok = finite and simplex_err <= SIMPLEX_TOL and a.shape[0] == n_px
        self.checks["outputs_finite"] = self.checks.get(
            "outputs_finite", True) and finite
        self.checks["simplex_max_err"] = max(
            simplex_err, self.checks.get("simplex_max_err", 0.0))
        return ok

    def save_model(self, theta, phi, base: str) -> str:
        """Write a checkpoint as ``cli train`` would; return its digest."""
        from unmix import diffcore as dc
        from unmix.inference import model_parameters
        meta = {"n_bands": self.spec["bands"], "n_endmembers": self.spec["p"],
                "latent_dim": LATENT_DIM, "lista_layers": LISTA_LAYERS,
                "seed": self.seed, "epoch": 0}
        dc.save_checkpoint(base, meta, model_parameters(theta, phi))
        return _digest([base + ".json", base + ".raw"])

    def read_report(self, csv_path: str) -> list[dict]:
        from unmix import evaluation as ev
        with open(csv_path) as f:
            return ev.reports_from_csv(f.read())


# ---------------------------------------------------------------- training

class TrainRun(Run):

    def setup(self):
        from unmix import data as dt
        from unmix.inference import init_model
        import numpy as np
        s = self.spec
        self.generate()
        self.sup = os.path.join(self.scene, "sup")
        self.must(["selfsup", os.path.join(self.scene, "cube"), self.sup,
                   "--p", str(s["p"]), "--n-ppx", str(s["n_ppx"]),
                   "--n-draws", str(s["n_draws"]), "--seed", str(self.seed)])
        self.cube = dt.load_cube(os.path.join(self.scene, "cube"))
        self.labelled = dt.load_supervised(self.sup)

        def fresh_model():
            # The same initialisation ``objective.train`` makes for this seed.
            init_ss = np.random.SeedSequence(self.seed).spawn(3)[0]
            return init_model(self.cube.n_bands, s["p"], LATENT_DIM,
                              LISTA_LAYERS, np.random.default_rng(init_ss),
                              ref_endmembers=self.labelled[2].mean(axis=0))
        self.fresh_model = fresh_model
        self.theta, self.phi = fresh_model()
        self.digests["setup"] = _dir_digest(self.scene)

    def quota(self) -> int:
        if self.args.size == "tiny":
            return TINY_STEPS
        return max(MIN_STEPS, round(self.args.seconds * self.spec["rate"]))

    def train(self, theta, phi, steps: int, record: bool):
        """Run ``objective.train`` for exactly ``steps`` optimizer steps."""
        from unmix import objective
        from unmix.errors import UnmixError
        config = objective.TrainConfig(batch_size=self.spec["batch"],
                                       max_epochs=10 ** 6,
                                       rel_stop_tol=-math.inf)
        ends: list[float] = []
        losses: list[float] = []
        pixels = [0]
        total_loss, adam_step = objective.total_loss, objective.adam_step
        tracer = self.tracer if record else None
        self.step_nodes: list[int] = []

        def counted_total_loss(batch_u, *rest):
            bd = total_loss(batch_u, *rest)
            losses.append(bd.total)
            pixels[0] += len(batch_u)
            if tracer is not None:
                with tracer.span("bench.graph_walk"):
                    self.step_nodes.append(_count_nodes(bd.node))
            return bd

        def counted_adam_step(*a, **kw):
            out = adam_step(*a, **kw)
            ends.append(time.perf_counter())
            if tracer is not None:
                tracer.op += 1
            if len(ends) >= steps:
                raise _QuotaReached
            return out

        patches = {"total_loss": counted_total_loss,
                   "adam_step": counted_adam_step}
        saved = {k: getattr(objective, k) for k in patches}
        for k, v in patches.items():
            setattr(objective, k, v)
        t0 = time.perf_counter()
        try:
            objective.train(self.cube.pixels, self.labelled, config, self.seed,
                            latent_dim=LATENT_DIM, lista_layers=LISTA_LAYERS,
                            theta=theta, phi=phi)
        except _QuotaReached:
            pass
        except UnmixError as exc:
            ends.append(time.perf_counter())
            self.fail(f"train step {len(ends)}: {exc}")
        finally:
            for k, v in saved.items():
                setattr(objective, k, v)
        return t0, ends, losses, pixels[0]

    def probe(self):
        theta, phi = self.fresh_model()
        self.train(theta, phi, PROBE_STEPS, record=False)
        self.digests["probe"] = self.save_model(
            theta, phi, os.path.join(self.work, "probe"))

    def timed(self) -> dict:
        steps = self.quota()
        t0, ends, losses, pixels = self.train(self.theta, self.phi, steps,
                                              record=True)
        self.attempted += len(ends)
        step_ms = [(b - a) * 1e3 for a, b in zip([t0] + ends[:-1], ends)]
        n_finite = sum(math.isfinite(x) for x in losses)
        self.checks["objective_finite_steps"] = f"{n_finite}/{len(losses)}"
        # ``train`` raises on a non-finite objective; that step already
        # counts as failed, so only a silent one would add here.
        self.failed += max(0, len(losses) - n_finite - len(self.errors))
        # Training maximises the objective: its mean over the last tenth of
        # the quota must exceed that over the first tenth (one operation).
        self.attempted += 1
        tenth = max(1, len(losses) // 10)
        first = statistics.fmean(losses[:tenth]) if losses else math.nan
        last = statistics.fmean(losses[-tenth:]) if losses else math.nan
        self.checks.update(objective_first_tenth=first,
                           objective_last_tenth=last)
        if not last > first:
            self.fail(f"objective did not rise: {first} -> {last}")
        return {"wall_s": ends[-1] - t0, "op_ms": step_ms, "pixels": pixels,
                "n_ops": len(ends)}

    def untrained_nrmse_a(self) -> float:
        """Abundance error of the freshly initialised model on the scene."""
        from unmix import data as dt
        from unmix import evaluation as ev
        from unmix.inference import point_estimates
        theta, phi = self.fresh_model()
        a, m = point_estimates(self.cube.pixels, phi, theta)
        truth = dt.GroundTruth(
            abundances=dt.load_abundances(
                os.path.join(self.scene, "abundances"))[0],
            endmembers=dt.load_endmembers(
                os.path.join(self.scene, "endmembers")))
        return ev.evaluate(self.cube, truth,
                           ev.Estimates(abundances=a, endmembers=m)).nrmse_a

    def after(self) -> dict:
        """Unmix and score the trained model on its own training scene.

        One operation: it fails unless every command exits 0 and the outputs
        are finite and on the simplex.  The abundance errors of the trained
        model, the untrained model and the FCLS-on-VCA baseline are reported,
        not gated: at the step quota the trained model loses to the baseline
        on some seeds of both scene kinds, and on dc1 now and then even to
        the untrained model."""
        ckpt = os.path.join(self.work, "trained")
        out = os.path.join(self.work, "trained_out")
        cube = os.path.join(self.scene, "cube")
        csv = os.path.join(self.work, "report.csv")
        self.digests["checkpoint"] = self.save_model(self.theta, self.phi, ckpt)
        if self.tracer is not None:
            self.tracer.track_alloc = True
        rc = self.cli.main(["unmix", cube, ckpt, out])
        if self.tracer is not None:
            self.tracer.track_alloc = False
        self.attempted += 1
        eval_s = []
        rcs = [rc, self.cli.main(["eval", self.scene, out, csv])]
        for _ in range(EVAL_REPEATS):
            t = time.perf_counter()
            rcs.append(self.cli.main(["unmix", cube, ckpt, out, "--force"]))
            rcs.append(self.cli.main(["eval", self.scene, out, csv]))
            eval_s.append(time.perf_counter() - t)
        base_csv = os.path.join(self.work, "baseline.csv")
        rcs.append(self.cli.main(["eval", self.scene, out, base_csv,
                                 "--baseline", "fcls", "--seed", str(self.seed)]))
        if any(rcs):
            self.fail(f"post-training commands exited {rcs}")
            return {"eval_s": eval_s}
        ok = self.check_outputs(out, self.cube.n_pixels)
        model = self.read_report(csv)[0]["nrmse_a"]
        fcls = self.read_report(base_csv)[1]["nrmse_a"]
        untrained = self.untrained_nrmse_a()
        self.checks.update(nrmse_a_model=model, nrmse_a_untrained=untrained,
                           nrmse_a_fcls_vca=fcls)
        self.digests["outputs"] = _dir_digest(out)
        if not ok:
            self.fail("trained model outputs are not finite or not on the "
                      "simplex")
        return {"eval_s": eval_s}

    def graph_nodes(self) -> float:
        self.checks["graph_nodes_per_step"] = sorted(set(self.step_nodes))
        return statistics.mean(self.step_nodes)


def _count_nodes(root) -> int:
    """Graph nodes reachable from ``root`` through parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# ---------------------------------------------------------------- unmixing

class UnmixRun(Run):

    def setup(self):
        import numpy as np
        from unmix.inference import init_model
        s = self.spec
        self.generate()
        self.cube_path = os.path.join(self.scene, "cube")
        self.ckpt = os.path.join(self.work, "model")
        theta, phi = init_model(s["bands"], s["p"], LATENT_DIM, LISTA_LAYERS,
                                np.random.default_rng(self.seed))
        self.digests["checkpoint"] = self.save_model(theta, phi, self.ckpt)
        self.n_px = s["width"] * s["height"]
        self.digests["setup"] = _dir_digest(self.scene)

    def probe(self):
        """Point estimates of the first pixels, loaded as ``unmix`` would."""
        import numpy as np
        from unmix import data as dt
        from unmix import diffcore as dc
        from unmix.inference import init_model, model_parameters, point_estimates
        meta, arrays = dc.load_checkpoint(self.ckpt)
        theta, phi = init_model(meta["n_bands"], meta["n_endmembers"],
                                meta["latent_dim"], meta["lista_layers"],
                                np.random.default_rng(meta["seed"]))
        dc.load_params_into(model_parameters(theta, phi), arrays)
        y = dt.load_cube(self.cube_path).pixels[:PROBE_PIXELS]
        a, m = point_estimates(y, phi, theta)
        self.digests["probe"] = hashlib.sha256(
            a.tobytes() + m.tobytes()).hexdigest()

    def quota(self) -> int:
        if self.args.size == "tiny":
            return TINY_OPS
        return max(MIN_OPS, round(self.args.seconds / self.spec["op_s"]))

    def op(self, out: str, csv: str) -> tuple[float, float, list[int]]:
        t0 = time.perf_counter()
        rc_u = self.cli.main(["unmix", self.cube_path, self.ckpt, out, "--force"])
        t1 = time.perf_counter()
        rc_e = self.cli.main(["eval", self.scene, out, csv])
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1, [rc_u, rc_e]

    def check_op(self, i: int, out: str, csv: str, rcs: list[int]):
        """Exit codes, outputs, eval read-back and repeat-identical bytes."""
        if any(rcs):
            self.fail(f"op {i}: exit codes {rcs}")
            return
        ok = self.check_outputs(out, self.n_px)
        report = self.read_report(csv)[0]
        # Each report column needs one output read back by ``eval``.
        read_back = all(report[k] is not None and math.isfinite(report[k])
                        for k in ("nrmse_a", "nrmse_m", "sam_m", "nrmse_y",
                                  "eta_d_mean"))
        self.checks["eval_read_back"] = self.checks.get(
            "eval_read_back", True) and read_back
        digest = _dir_digest(out)
        if i == 0:
            self.digests["outputs"] = digest
        same = digest == self.digests["outputs"]
        self.checks["repeat_identical"] = self.checks.get(
            "repeat_identical", True) and same
        if not (ok and read_back and same):
            self.fail(f"op {i}: outputs ok={ok} read_back={read_back} "
                      f"identical={same}")

    def timed(self) -> dict:
        out = os.path.join(self.work, "out")
        csv = os.path.join(self.work, "report.csv")
        unmix_s, eval_s, op_ms = [], [], []
        for i in range(self.quota()):
            u, e, rcs = self.op(out, csv)
            unmix_s.append(u)
            eval_s.append(e)
            op_ms.append((u + e) * 1e3)
            self.attempted += 1
            if self.tracer is None:
                self.check_op(i, out, csv, rcs)
                continue
            self.tracer.op += 1
            with self.tracer.paused():
                self.check_op(i, out, csv, rcs)
        return {"wall_s": sum(op_ms) / 1e3, "op_ms": op_ms,
                "unmix_s": unmix_s, "eval_s": eval_s,
                "pixels": self.n_px * len(op_ms), "n_ops": len(op_ms)}

    def after(self) -> dict:
        if self.tracer is not None:
            # One untimed op with allocation tracking on.
            self.tracer.track_alloc = True
            self.op(os.path.join(self.work, "alloc_out"),
                    os.path.join(self.work, "alloc.csv"))
            self.tracer.track_alloc = False
        return {}

    def graph_nodes(self) -> float:
        return 0.0


# ---------------------------------------------------------------- per-layer

def per_layer(tracer, n_ops: int, wall_s: float, top: set) -> dict:
    """Per-op values of every traced name, layer self times and coverage."""
    from tracer import ALLOC_TARGETS, LAYERS
    summary = tracer.summary()
    out = {}
    for name, s in summary.items():
        out[f"{name}.calls"] = s["calls"] / n_ops
        out[f"{name}.ms"] = s["incl_s"] / n_ops * 1e3
        out[f"{name}.self_ms"] = s["self_s"] / n_ops * 1e3
        out[f"{name}.calls_per_op"] = sorted(set(s["calls_per_op"].values()))
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = sum(
            s["self_s"] for n, s in summary.items()
            if n.startswith(layer + ".")) / n_ops * 1e3
    bench_s = sum(s["incl_s"] for n, s in summary.items()
                  if n.startswith("bench."))
    out["trace.coverage"] = tracer.top_level_s(top) / (wall_s - bench_s)
    out["data.bytes_written"] = tracer.bytes_written / n_ops / 2 ** 20
    out["data.bytes_read"] = tracer.bytes_read / n_ops / 2 ** 20
    for name in ALLOC_TARGETS:
        out[f"{name}.alloc_peak_mb"] = 0.0
    return out


# ---------------------------------------------------------------- entry

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--role", choices=["setup", "main"], required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    import unmix  # noqa: F401  (pins BLAS threads before numpy loads)
    import unmix.cli  # noqa: F401
    run = (UnmixRun if args.workload.startswith("unmix") else TrainRun)(args)
    os.makedirs(run.work, exist_ok=True)
    if args.trace:
        from tracer import Tracer
        run.tracer = Tracer()
    run.setup()
    setup_s = time.monotonic() - args.spawned_at
    result = {"role": args.role, "setup_s": setup_s}
    if args.role == "main":
        if run.tracer is not None:
            run.tracer.install()
        timed = run.timed()
        result["threads"] = _os_threads()
        # Peak over set-up and the timed phase, before the checks run.
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if run.tracer is not None:
            top = UNMIX_TOP if isinstance(run, UnmixRun) else TRAIN_TOP
            layers = per_layer(run.tracer, timed["n_ops"], timed["wall_s"],
                               top)
            layers["diffcore.graph_nodes"] = run.graph_nodes()
            run.tracer.clear()
        timed.update(run.after())
        if run.tracer is not None:
            run.tracer.uninstall()
            for name, peak in run.tracer.alloc_peak_mb.items():
                layers[f"{name}.alloc_peak_mb"] = peak
            result["layers"] = layers
        result["timed"] = timed
    run.probe()
    result.update(attempted=run.attempted, failed=run.failed,
                  errors=run.errors, checks=run.checks, digests=run.digests,
                  env=_environment(args.seed))
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
