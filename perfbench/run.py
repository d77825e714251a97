"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-dc1-b16 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each sample is a fresh single-threaded
process (``child.py``) with ``UNMIX_THREADS=1`` set before numpy loads.

``--trace 0`` starts three processes: two that only set up (and hash a short
determinism probe) and one that also runs the timed phase and the correctness
checks.  It prints every end-to-end metric; ``setup_s`` is the median of the
three set-ups.  ``--trace 1`` starts one untraced and one traced main process
and prints every per-layer metric, including the tracing overhead (traced
minus untraced ``wall_s``).

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUDGET_S = 170.0
WORKLOADS = ("train-dc1-b16", "train-dc2-b64", "unmix-dc2-10k")


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _child_env() -> dict:
    env = dict(os.environ)
    # The package pins the BLAS pools from UNMIX_THREADS; clear any caps
    # inherited from the shell so that mechanism is what sets them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    env["UNMIX_THREADS"] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class ChildFailed(RuntimeError):
    pass


def _spawn(args, role: str, trace: int, work: str, deadline: float) -> dict:
    os.makedirs(work, exist_ok=True)
    result = os.path.join(work, "result.json")
    log = os.path.join(work, "stderr.log")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time budget spent before the next sample")
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role,
           "--trace", str(trace), "--size", args.size, "--workdir", work,
           "--result", result, "--spawned-at", repr(spawned_at)]
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{role} sample exceeded the time budget") from None
    if proc.returncode != 0 or not os.path.exists(result):
        with open(log) as f:
            tail = f.read()[-4000:]
        raise ChildFailed(f"{role} sample exited {proc.returncode}:\n{tail}")
    with open(result) as f:
        return json.load(f)


def _determinism(samples: list[dict]) -> tuple[dict, bool]:
    """Compare every digest that more than one sample produced."""
    keys = sorted(set.union(*(set(s["digests"]) for s in samples)))
    table, same = {}, True
    for k in keys:
        values = [s["digests"][k] for s in samples if k in s["digests"]]
        if len(values) < 2:
            continue
        table[k] = len(set(values)) == 1
        same = same and table[k]
    return table, same


def _end_to_end(samples: list[dict], main: dict) -> dict:
    timed = main["timed"]
    op_ms = timed["op_ms"]
    if "unmix_s" in timed:
        per_op = timed["pixels"] / timed["n_ops"]
        px_per_s = statistics.median(per_op / s for s in timed["unmix_s"])
    else:
        px_per_s = timed["pixels"] / timed["wall_s"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": timed["wall_s"],
        "px_per_s": px_per_s,
        "step_ms.p50": statistics.median(op_ms),
        "step_ms.p90": _quantile(op_ms, 90),
        "eval_s": statistics.median(timed["eval_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny scenes and quotas, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "unmix", "__init__.py")):
        print("error: no unmix package under src/ in this checkout",
              file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)

    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    roles = ([("setup", 0), ("setup", 0), ("main", 0)] if not args.trace
             else [("main", 0), ("main", 1)])
    samples = []
    try:
        for i, (role, trace) in enumerate(roles):
            samples.append(_spawn(args, role, trace,
                                  os.path.join(work, f"p{i}"), deadline))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    untraced = next(s for s in samples if s["role"] == "main"
                    and "layers" not in s)
    attempted = sum(s["attempted"] for s in samples) + 1
    failed = sum(s["failed"] for s in samples)
    same_table, same = _determinism(samples)
    if not same:
        failed += 1
    env = dict(untraced["env"], commit=_commit(), src_sha256=_source_digest(),
               child_threads=untraced["threads"])

    if args.trace:
        traced = next(s for s in samples if "layers" in s)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (traced["timed"]["wall_s"]
                                      - untraced["timed"]["wall_s"])
        values["trace.overhead_share"] = (values["trace.overhead_s"]
                                          / untraced["timed"]["wall_s"])
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(samples, untraced)
        wanted = spec["end_to_end"]
    values["ok_ratio"] = 1.0 - failed / attempted
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    for s in samples:
        tag = s["role"] + (" traced" if "layers" in s else "")
        print(f"checks[{tag}] " + json.dumps(s["checks"], sort_keys=True))
        for e in s["errors"]:
            print(f"error[{tag}] {e}")
    print("determinism " + json.dumps(same_table, sort_keys=True))
    if args.trace:
        exact = {k: v for k, v in traced["layers"].items()
                 if k.endswith(".calls_per_op")}
        print("calls_per_op " + json.dumps(exact, sort_keys=True))
    timed = untraced["timed"]
    print(f"samples: {timed['n_ops']} ops in the timed phase, "
          f"{len(samples)} processes")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
