"""One benchmark sample: set up and solve one workload in a fresh process.

    python3 perfbench/child.py --inputs DIR [--traced]

DIR holds the documents and workload.json written by workloads.write_inputs.
The last line of standard output is one JSON object with the sample's
timings, counts and correctness verdict; the exit code is 0 only when the
sample passed its correctness gate.
"""

from __future__ import annotations

import benchenv

benchenv.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import mlopf  # noqa: E402
from mlopf import (  # noqa: E402
    FlatEngine,
    SolverConfig,
    auto_partition,
    build_sensitivity,
    load_network,
    load_partition,
    load_problem,
    make_engine,
    validate_partition,
)
from mlopf import solver  # noqa: E402
from mlopf.solver import LinearVoltageModel, SweepVoltageModel, initial_state  # noqa: E402

import speed  # noqa: E402
import tracer as tr  # noqa: E402


def setup(inputs: Path, cfg: dict):
    """Documents to initial state, as ``mlopf solve`` does it, with stage times."""
    stages = {}
    clock = time.perf_counter
    start = last = clock()

    def lap(name):
        nonlocal last
        now = clock()
        stages[name] = now - last
        last = now

    net = load_network(inputs / "network.json")
    lap("network.load_s")
    part = None
    if cfg["engine"] != "flat":
        if cfg["auto_partition"]:
            part = auto_partition(net, *cfg["partition_targets"])
        else:
            part = load_partition(inputs / "partition.json", net)
        problems = validate_partition(net, part)
        if problems:
            raise ValueError("invalid partition: " + "; ".join(problems[:3]))
    lap("partition.build_s")
    sens = build_sensitivity(net)
    lap("sensitivity.build_s")
    problem = load_problem(inputs / "devices.json", net, sens)
    lap("opf.load_problem_s")
    engine = make_engine(cfg["engine"], sens=sens, net=net, part=part, threads=1)
    lap("coupling.build_s")
    if cfg["voltage_model"] == "sweep":
        vmodel = SweepVoltageModel(net, sens)
    else:
        vmodel = LinearVoltageModel(sens)
    state = initial_state(problem, vmodel)
    lap("voltage_model.build_s")
    return (net, sens, problem, engine, vmodel, state), clock() - start, stages


def gate(cfg: dict, result, problem, engine, net, sens, inputs: Path) -> list[str]:
    """Reasons the solve counts as failed; empty when it passed."""
    reasons = []
    rows = np.array([
        (r.objective, r.lagrangian, r.max_over_violation, r.max_under_violation, r.residual)
        for r in result.trace.records
    ])
    st = result.state
    arrays = (rows, st.p, st.q, st.v, st.duals.mu_upper, st.duals.mu_lower)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        reasons.append("non-finite value in the trace or the final state")
    if cfg["residual_tol"] > 0:
        if not result.converged:
            reasons.append(
                f"residual {result.residual:.3e} above {cfg['residual_tol']:g} "
                f"after {st.iteration} iterations"
            )
        slack = cfg["v_slack"]
        b = problem.bounds
        if not (np.all(st.v >= b.v_lower - slack) and np.all(st.v <= b.v_upper + slack)):
            reasons.append(f"final squared voltages leave the bounds by more than {slack:g}")
    # Engine equivalence at the final duals (acceptance criterion 1's tolerance).
    # A flat workload checks a trilevel engine on its partition document
    # instead: flat against flat would compare a computation with itself.
    if engine.name == "flat":
        part = load_partition(inputs / "partition.json", net)
        engine = make_engine("trilevel", sens=sens, net=net, part=part, threads=1)
    ref = FlatEngine(sens).compute(st.duals.mu_upper, st.duals.mu_lower)
    got = engine.compute(st.duals.mu_upper, st.duals.mu_lower)
    for name, a, b in (("g_p", got.g_p, ref.g_p), ("g_q", got.g_q, ref.g_q)):
        tol = 1e-9 * (1.0 + float(np.max(np.abs(b))))
        gap = float(np.max(np.abs(a - b)))
        if not gap <= tol:
            reasons.append(f"{engine.name} {name} differs from flat by {gap:.3e} > {tol:.3e}")
    return reasons


def sample(inputs: Path, traced: bool) -> dict:
    cfg = json.loads((inputs / "workload.json").read_text())
    reference_s = [speed.reference_s()]
    (net, sens, problem, engine, vmodel, state), setup_s, stages = setup(inputs, cfg)
    reference_s.append(speed.reference_s())
    scfg = SolverConfig(
        step_primal=cfg["step_primal"], step_dual=cfg["step_dual"], eta=cfg["eta"],
        max_iters=cfg["max_iters"], residual_tol=cfg["residual_tol"],
    )
    if traced:
        tracer = tr.Tracer()
        tr.time_objective(problem, tracer)
        timed_run = tracer.wrap("solver.run", solver.run)
        with tr.solver_functions_traced(tracer):
            t0 = time.perf_counter()
            result = timed_run(
                state, problem, tr.TimedEngine(engine, tracer),
                tr.TimedVoltageModel(vmodel, tracer), scfg,
            )
            solve_s = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        result = solver.run(state, problem, engine, vmodel, scfg)
        solve_s = time.perf_counter() - t0
    reference_s.append(speed.reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    step_ms = np.array([r.step_ns for r in result.trace.records[1:]], dtype=float) / 1e6
    reasons = gate(cfg, result, problem, engine, net, sens, inputs)
    out = {
        "ok": not reasons,
        "reasons": reasons,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "iterations": result.state.iteration,
        "converged": result.converged,
        "residual": result.residual,
        "iter_ms_p50": float(np.percentile(step_ms, 50)) if step_ms.size else 0.0,
        "iter_ms_p99": float(np.percentile(step_ms, 99)) if step_ms.size else 0.0,
        "step_ms": step_ms.round(5).tolist(),
        "peak_rss_mb": peak_rss_mb,
        "stages": stages,
        "dense_mb": (sens.r.nbytes + sens.x.nbytes) / 2**20,
        "reference_s": reference_s,
    }
    if traced:
        out["layers"] = tr.layer_metrics(
            tracer, result.state.iteration, cfg["engine"], cfg["voltage_model"]
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if benchenv.SRC not in Path(mlopf.__file__).resolve().parents:
        print(f"mlopf was imported from {mlopf.__file__}, not from {benchenv.SRC}",
              file=sys.stderr)
        return 2
    try:
        out = sample(args.inputs, args.traced)
    except Exception as exc:  # a failed sample is a result, not a crash
        traceback.print_exc(file=sys.stderr)
        out = {"ok": False, "reasons": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
