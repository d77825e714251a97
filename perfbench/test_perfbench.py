"""The benchmark's own tests: tiny smoke runs, metric names, trace coverage.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _bench(workload: str, trace: int, size: str = "tiny", seconds: int = 1,
           root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace), "--size", size],
        cwd=root, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=run.WORKLOADS)
def tiny_runs(request):
    w = request.param
    return w, _result(_bench(w, 0)), _result(_bench(w, 1))


def test_benchmark_json_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_every_per_layer_name_is_one_the_tracer_can_produce():
    import tracer
    fixed = {"diffcore.graph_nodes", "data.bytes_written", "data.bytes_read",
             "trace.coverage", "trace.overhead_s", "trace.overhead_share"}
    fixed |= {f"layer.{layer}.self_ms" for layer in tracer.LAYERS}
    traced = {f"{layer}.{fn}" for layer, fns in tracer.TARGETS.items()
              for fn in fns}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in fixed:
            continue
        base, suffix = name.rsplit(".", 1)
        assert base in traced and suffix in {"ms", "self_ms", "calls"} or (
            base in tracer.ALLOC_TARGETS and suffix == "alloc_peak_mb"), name


def test_every_metric_is_emitted_with_its_unit(tiny_runs):
    _, plain, traced = tiny_runs
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(result["metrics"]) == set(expected)
        for name, m in result["metrics"].items():
            assert m["unit"] == expected[name]
            assert isinstance(m["value"], float) and math.isfinite(m["value"])
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0.0, m["name"]


def test_top_level_spans_cover_the_traced_phase(tiny_runs):
    _, _, traced = tiny_runs
    assert traced["metrics"]["trace.coverage"]["value"] >= 0.9


def test_full_size_training_trace_is_covered_and_counts_repeat():
    proc = _bench("train-dc1-b16", 1, size="full", seconds=1)
    result = _result(proc)
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    per_op = json.loads(next(line for line in proc.stdout.splitlines()
                             if line.startswith("calls_per_op "))
                        .split(" ", 1)[1])
    # Every step makes the same calls: one distinct count per function.
    assert all(len(v) == 1 for v in per_op.values()), per_op
    assert per_op["diffcore.adam_step.calls_per_op"] == [1]


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("train-dc1-b16", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_determinism_flags_a_mismatch():
    same = [{"digests": {"setup": "a", "probe": "b"}},
            {"digests": {"setup": "a", "probe": "b"}}]
    assert run._determinism(same) == ({"setup": True, "probe": True}, True)
    differ = same + [{"digests": {"setup": "a", "probe": "c"}}]
    assert run._determinism(differ) == ({"setup": True, "probe": False}, False)
