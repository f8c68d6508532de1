"""Solve benchmark for mlopf: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload uv300-converge --seed 0 --seconds 30 --trace 0

Generates the workload's documents from the seed, then solves them once per
sample, each sample in a fresh child process with BLAS threads pinned to 1,
one child at a time, until the time budget is spent. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
samples and reports the per-layer metrics. Every sample passes a
correctness gate (see child.gate); a sample that fails it, raises, or
times out is counted in ``failed``. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A full
record, with the environment and every sample, is written under
perfbench/out/results/.
"""

from __future__ import annotations

import benchenv

benchenv.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
from workloads import FEEDER_SEED, WORKLOADS, write_inputs  # noqa: E402

OUT = benchenv.BENCH_DIR / "out"
CHILD_TIMEOUT_S = 120
MIN_ROUNDS = {0: 3, 1: 1}

# name: (unit, kind). "counted" and "computed" values are exact, not timed.
END_TO_END = {
    "setup_s": ("s", "measured"),
    "solve_s": ("s", "measured"),
    "total_s": ("s", "measured"),
    "iterations": ("count", "counted"),
    "peak_rss_mb": ("MiB", "measured"),
}
PER_LAYER = {
    "network.load_s": ("s", "measured"),
    "partition.build_s": ("s", "measured"),
    "sensitivity.build_s": ("s", "measured"),
    "sensitivity.dense_mb": ("MiB", "computed"),
    "opf.load_problem_s": ("s", "measured"),
    "coupling.build_s": ("s", "measured"),
    "coupling.compute_ms": ("ms", "measured"),
    "coupling.share": ("fraction", "measured"),
    "coupling.ops_per_apply": ("count", "counted"),
    "coupling.messages_per_apply": ("count", "counted"),
    "sensitivity.voltage_ms": ("ms", "measured"),
    "sensitivity.voltage_share": ("fraction", "measured"),
    "powerflow.sweep_ms": ("ms", "measured"),
    "powerflow.sweeps_per_call": ("count", "counted"),
    "powerflow.share": ("fraction", "measured"),
    "opf.dual_update_ms": ("ms", "measured"),
    "opf.residual_ms": ("ms", "measured"),
    "opf.record_ms": ("ms", "measured"),
    "solver.self_ms": ("ms", "measured"),
    "solver.iter_ms_p99": ("ms", "measured"),
    "trace.overhead_frac": ("fraction", "measured"),
}
SETUP_STAGES = (
    "network.load_s", "partition.build_s", "sensitivity.build_s",
    "opf.load_problem_s", "coupling.build_s",
)


def run_child(inputs: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(benchenv.BENCH_DIR / "child.py"), "--inputs", str(inputs)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, env=benchenv.child_env(), cwd=benchenv.ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "reasons": [f"no result within {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "reasons": [f"exit code {proc.returncode}: {tail[0]}"]}
    out["ok"] = bool(out.get("ok")) and proc.returncode == 0
    out["traced"] = traced
    return out


def collect(inputs: Path, seconds: float, trace: int) -> list[dict]:
    """Rounds of samples until the next round would overrun the budget."""
    modes = (False,) if trace == 0 else (False, True)
    samples, rounds = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        samples.extend(run_child(inputs, traced) for traced in modes)
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS[trace] and elapsed + statistics.median(rounds) > seconds:
            return samples


def normalised(s: dict) -> dict:
    """One sample's metric values, its times scaled to the reference speed.

    "steps" holds the sample's scaled per-iteration times; the run's
    percentiles pool them over all samples.
    """
    r0, r1, r2 = s["reference_s"]
    k_setup = speed.NOMINAL_S / ((r0 + r1) / 2)
    k_solve = speed.NOMINAL_S / ((r1 + r2) / 2)
    v = {
        "setup_s": s["setup_s"] * k_setup,
        "solve_s": s["solve_s"] * k_solve,
        "steps": np.asarray(s["step_ms"]) * k_solve,
        "iterations": s["iterations"],
        "peak_rss_mb": s["peak_rss_mb"],
        "sensitivity.dense_mb": s["dense_mb"],
    }
    v["total_s"] = v["setup_s"] + v["solve_s"]
    for name in SETUP_STAGES:
        v[name] = s["stages"][name] * k_setup
    for name, value in s.get("layers", {}).items():
        v[name] = value * k_solve if PER_LAYER[name][0] == "ms" else value
    return v


def medians(values: list[dict], names) -> dict:
    return {name: statistics.median(v[name] for v in values) for name in names}


def step_percentile(values: list[dict], q: float) -> float:
    """Percentile of the per-iteration times pooled over the samples.

    On a box whose slow spells last about half a second, one 5-second solve
    can spend half its steps slow, and the median of its steps then jumps
    between the fast and the slow level. The pool depends on the whole
    run's share of slow time instead; it still jumps when that share is
    near one half.
    """
    steps = np.concatenate([v["steps"] for v in values])
    return float(np.percentile(steps, q)) if steps.size else 0.0


def end_to_end(ok: list[dict]) -> tuple[dict | None, dict]:
    """Gated metrics, and the ungated median step time printed beside them.

    The median step time is not gated: on the feedback workload it jumps
    between the box's fast and slow level from run to run (see README).
    """
    if not ok:
        return None, {}
    values = [normalised(s) for s in ok]
    return medians(values, END_TO_END), {"iter_ms_p50": step_percentile(values, 50)}


def per_layer(ok: list[dict]) -> dict | None:
    plain = [normalised(s) for s in ok if not s["traced"]]
    traced = [normalised(s) for s in ok if s["traced"]]
    if not (plain and traced):
        return None
    out = medians(traced, [n for n in PER_LAYER if n in traced[0]])
    out["solver.iter_ms_p99"] = step_percentile(plain, 99)
    solve = [medians(vals, ["solve_s"])["solve_s"] for vals in (traced, plain)]
    out["trace.overhead_frac"] = solve[0] / solve[1] - 1.0
    return {name: out[name] for name in PER_LAYER if name in out}


def report(args, env: dict, samples: list[dict], metrics: dict | None, table: dict,
           diagnostics: dict) -> dict:
    """Print the run's table and return the JSON result line.

    The result line names every metric of the table whenever there are
    metrics. A layer the workload does not run has no value: the table
    prints it as not run and the result line holds 0 for it.
    """
    failed = sum(not s["ok"] for s in samples)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(samples)}  failed {failed}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    for name, (unit, kind) in table.items() if metrics else ():
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<9} {kind}")
        else:
            print(f"  {name:<28} {'-':>14} {unit:<9} not run on this workload")
    for name, value in diagnostics.items():
        print(f"  {name:<28} {value:>14.6g} {'ms':<9} measured, not gated")
    print(f"  {'fail_rate':<28} {failed / len(samples):>14.6g} {'fraction':<9} counted")
    for s in samples:
        for reason in s["reasons"]:
            print(f"  failed sample: {reason}")
    return {
        "correct": failed == 0 and metrics is not None,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, (unit, _) in table.items()
        } if metrics else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mlopf solve benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny feeders, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (benchenv.SRC / "mlopf" / "__init__.py").is_file():
        print(f"error: no mlopf sources under {benchenv.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(benchenv.SRC))
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()

    (OUT / "inputs").mkdir(parents=True, exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "inputs"))
    try:
        write_inputs(workload, args.seed, inputs)
        env = benchenv.environment(args.seed)
        samples = collect(inputs, args.seconds, args.trace)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    ok = [s for s in samples if s["ok"]]
    if args.trace == 0:
        table, (metrics, diagnostics) = END_TO_END, end_to_end(ok)
    else:
        table, metrics, diagnostics = PER_LAYER, per_layer(ok), {}
    result = report(args, env, samples, metrics, table, diagnostics)

    record = dict(result, workload=args.workload, smoke=args.smoke,
                  feeder_seed=FEEDER_SEED, environment=env,
                  kinds={name: kind for name, (_, kind) in table.items()},
                  not_run=[name for name in table if metrics and name not in metrics],
                  diagnostics=diagnostics,
                  fail_rate=result["failed"] / result["attempted"],
                  samples=[{k: v for k, v in s.items() if k != "step_ms"} for s in samples],
                  scaled_samples=[
                      {k: v for k, v in normalised(s).items() if k != "steps"} for s in ok
                  ])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
