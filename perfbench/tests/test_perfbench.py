"""Tests of the solve benchmark, on tiny feeders (``run.py --smoke``).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload: str, trace: int) -> dict:
    path = BENCH / "out" / "results" / f"{workload}-seed1-trace{trace}-smoke.json"
    return json.loads(path.read_text())


# Per-layer metrics of layers a workload does not run.
NOT_RUN = {
    "uv300-converge": {"powerflow.sweep_ms", "powerflow.sweeps_per_call", "powerflow.share"},
    "gen4k-fixed": {"powerflow.sweep_ms", "powerflow.sweeps_per_call", "powerflow.share"},
    "uv300-feedback": {
        "coupling.messages_per_apply", "sensitivity.voltage_ms", "sensitivity.voltage_share",
    },
}


def test_benchmark_json_names_the_metrics_and_workloads_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert next(m for m in spec["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in spec["end_to_end"]
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name][0]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    rec = record(workload, 0)
    env = rec["environment"]
    for key in ("python", "numpy", "blas_name", "blas_version", "cpu_model", "nproc",
                "pinned_threads", "git_commit", "seed"):
        assert key in env
    assert set(env["pinned_threads"].values()) == {"1"}
    assert rec["kinds"]["iterations"] == "counted"
    assert rec["diagnostics"]["iter_ms_p50"] > 0
    assert rec["not_run"] == []


def test_times_scale_by_the_reference_speed_and_counts_do_not():
    raw = {
        "setup_s": 2.0, "solve_s": 4.0, "step_ms": [1.0, 3.0],
        "iterations": 7, "peak_rss_mb": 50.0, "dense_mb": 1.0,
        "stages": {name: 0.5 for name in run.SETUP_STAGES},
        "layers": {"coupling.compute_ms": 0.2, "coupling.share": 0.4,
                   "coupling.ops_per_apply": 100.0},
    }
    nominal = run.normalised(dict(raw, reference_s=[speed.NOMINAL_S] * 3))
    slow = run.normalised(dict(raw, reference_s=[2 * speed.NOMINAL_S] * 3))
    assert nominal["solve_s"] == 4.0 and nominal["total_s"] == 6.0
    assert slow["solve_s"] == 2.0 and slow["coupling.compute_ms"] == 0.1
    assert run.step_percentile([slow, nominal], 50) == 1.25
    assert slow["network.load_s"] == 0.25
    for name in ("iterations", "peak_rss_mb", "coupling.share", "coupling.ops_per_apply"):
        assert slow[name] == nominal[name]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_the_layers_the_workload_runs(workload):
    result = smoke(workload, 1)
    assert result["correct"] and result["attempted"] == 2
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert set(record(workload, 1)["not_run"]) == NOT_RUN[workload]
    for name, value in metrics.items():
        if name in NOT_RUN[workload]:
            assert value == 0, name
        elif name != "trace.overhead_frac":  # noise can make it 0 or negative
            assert math.isfinite(value) and value > 0, name
    if WORKLOADS[workload].voltage_model == "sweep":
        assert metrics["powerflow.sweeps_per_call"] >= 1
    shares = ("coupling.share", "sensitivity.voltage_share", "powerflow.share")
    assert sum(metrics[s] for s in shares) < 1.0


def test_unsolvable_input_is_a_failed_run_not_a_skipped_one(tmp_path):
    # Feeder seed 3 at smoke size is loaded past the point where the sweep
    # converges, so feedback fails already at the initial point.
    write_inputs(WORKLOADS["uv300-feedback"].smoke(), 1, tmp_path, feeder_seed=3)
    samples = run.collect(tmp_path, 0, 0)
    metrics, diagnostics = run.end_to_end([s for s in samples if s["ok"]])
    args = argparse.Namespace(workload="uv300-feedback", seed=1, trace=0)
    result = run.report(args, {}, samples, metrics, run.END_TO_END, diagnostics)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert result["metrics"] == {}


def test_same_seed_same_inputs_and_seeds_differ(tmp_path):
    w = WORKLOADS["uv300-converge"].smoke()
    write_inputs(w, 5, tmp_path / "a")
    write_inputs(w, 5, tmp_path / "b")
    write_inputs(w, 6, tmp_path / "c")
    names = ("network.json", "devices.json", "partition.json", "workload.json")
    read = {d: [(tmp_path / d / n).read_text() for n in names] for d in "abc"}
    assert read["a"] == read["b"]
    assert read["a"][0] == read["c"][0] and read["a"][1] != read["c"][1]


def test_tracer_self_time_excludes_children_and_restores_the_solver():
    from mlopf import solver

    t = tr.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    o, i = t.spans["outer"], t.spans["inner"]
    assert (o.calls, i.calls) == (1, 3)
    assert o.child_ns == i.total_ns and o.self_ns == o.total_ns - i.total_ns >= 0
    before = {name: getattr(solver, name) for name in tr.SOLVER_FUNCTIONS}
    with tr.solver_functions_traced(t):
        assert all(getattr(solver, n) is not f for n, f in before.items())
    assert all(getattr(solver, n) is f for n, f in before.items())


def test_a_directory_without_the_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = bench("--workload", "uv300-converge", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
