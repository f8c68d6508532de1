"""Command-line entry point.

Subcommands: validate | partition | gen | solve | bench | compare. Every
run that writes an output directory also writes the manifest that
regenerates it. Exit codes: 0 success, 1 internal error, 2 input
validation, 3 solver non-convergence under --require-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .coupling import (
    AggregateExchange,
    DualRead,
    FlowRecord,
    GlobalAccess,
    ZAccess,
    make_engine,
    privacy_audit,
)
from .bench import bench_csv, bench_sweep, bench_table
from .feedergen import FeederSpec, feeder_documents, generate
from .network import NetworkError, document_number, load_network, read_document, save_network
from .opf import ProblemError, SolverConfig, load_problem
from .partition import (
    auto_partition,
    load_partition,
    partition_to_document,
    save_partition,
    size_targets,
    validate_partition,
)
from .powerflow import SweepError, compare_models
from .sensitivity import build_sensitivity
from .solver import (
    LinearVoltageModel,
    SolverError,
    SweepVoltageModel,
    initial_state,
    run,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _write_manifest(out: Path, args: argparse.Namespace, command: str) -> None:
    manifest = {
        "tool": "mlopf",
        "version": __version__,
        "command": command,
        "arguments": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func",)
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _error_record(out: Path | None, kind: str, message: str) -> None:
    record = {"error": kind, "message": message}
    print(json.dumps(record), file=sys.stderr)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").write_text(json.dumps(record, indent=2) + "\n")


def cmd_validate(args) -> int:
    net = load_network(args.network)
    problems = []
    if args.partition:
        part = load_partition(args.partition, net)
        problems = validate_partition(net, part)
    if args.devices:
        load_problem(args.devices, net, None)  # raises on inconsistency
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_partition(args) -> int:
    net = load_network(args.network)
    part = auto_partition(net, args.target_area_size, args.target_subarea_size)
    report = validate_partition(net, part)
    if report:
        _error_record(None, "validation", "; ".join(report))
        return EXIT_VALIDATION
    if args.out:
        save_partition(part, args.out)
    else:
        print(json.dumps(partition_to_document(part), indent=2))
    print(
        f"{part.n_areas} areas, {len(part.unclustered)} unclustered buses",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = FeederSpec(
        n_buses=args.buses,
        trunk_depth=args.trunk_depth,
        phase_drop=args.phase_drop,
        device_density=args.device_density,
        load_scale=args.load_scale,
        seed=args.seed,
    )
    feeder = generate(
        spec,
        target_area_size=args.target_area_size,
        target_subarea_size=args.target_subarea_size,
        v_min=args.vmin,
        v_max=args.vmax,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_network(feeder.net, out / "network.json")
    (out / "devices.json").write_text(json.dumps(feeder_documents(feeder)[1], indent=2) + "\n")
    save_partition(feeder.partition, out / "partition.json")
    _write_manifest(out, args, "gen")
    print(
        f"generated {feeder.net.n_buses - 1} buses, {feeder.net.n_flat} indices, "
        f"{len(feeder.devices)} devices, {feeder.partition.n_areas} areas -> {out}"
    )
    return EXIT_OK


def _audit_lines(record: FlowRecord) -> str:
    lines = []
    for ev in record.events:
        if isinstance(ev, DualRead):
            payload = {
                "event": "dual_read", "scope": list(ev.scope), "basis": ev.basis,
                "count": len(ev.indices),
                "flat_indices": list(ev.indices),
            }
        elif isinstance(ev, ZAccess):
            payload = {
                "event": "z_access", "scope": list(ev.scope), "kind": ev.kind,
                "row_buses": list(ev.row_buses), "col_buses": list(ev.col_buses),
            }
        elif isinstance(ev, AggregateExchange):
            payload = {
                "event": "aggregate", "producer": list(ev.producer),
                "consumer": list(ev.consumer),
            }
        elif isinstance(ev, GlobalAccess):
            payload = {"event": "global_access", "note": ev.note}
        else:
            payload = {"event": "unknown", "repr": repr(ev)}
        lines.append(json.dumps(payload))
    lines.append(json.dumps({"event": "applies", "count": record.applies}))
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    out = Path(args.out)
    net = load_network(args.network)
    sens = build_sensitivity(net)
    problem = load_problem(args.devices, net, sens)
    part = None
    if args.partition:
        part = load_partition(args.partition, net)
        report = validate_partition(net, part)
        if report:
            _error_record(out, "validation", "; ".join(report))
            return EXIT_VALIDATION
    elif args.engine in ("bilevel", "trilevel"):
        part = auto_partition(net, *size_targets(net.n_buses - 1))
    record = FlowRecord() if args.audit else None
    engine = make_engine(args.engine, sens=sens, net=net, part=part, record=record)
    if args.voltage_model == "sweep":
        vmodel = SweepVoltageModel(net, sens)
    else:
        vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(
        step_primal=args.step_primal,
        step_dual=args.step_dual,
        eta=args.eta,
        max_iters=args.iters,
        residual_tol=args.tol,
    )
    state = initial_state(problem, vmodel)
    t0 = time.perf_counter_ns()
    result = run(state, problem, engine, vmodel, cfg)
    wall_ns = time.perf_counter_ns() - t0

    out.mkdir(parents=True, exist_ok=True)
    result.trace.to_csv(out / "trace.csv")
    labels = net.flat_labels()
    setpoints = {
        "p": {f"{bus}:{ph}": float(v) for (bus, ph), v in zip(labels, result.state.p)},
        "q": {f"{bus}:{ph}": float(v) for (bus, ph), v in zip(labels, result.state.q)},
    }
    (out / "setpoints.json").write_text(json.dumps(setpoints, indent=2) + "\n")
    last = result.trace.records[-1]
    summary = {
        "engine": args.engine,
        "voltage_model": args.voltage_model,
        "iterations": result.state.iteration,
        "converged": result.converged,
        "final_objective": last.objective,
        "final_residual": result.residual,
        "max_over_violation": last.max_over_violation,
        "max_under_violation": last.max_under_violation,
        "total_coupling_ops": result.trace.total_coupling_ops(),
        "total_coupling_ns": result.total_coupling_ns,
        "wall_ns": wall_ns,
    }
    if isinstance(vmodel, SweepVoltageModel):
        summary["sweeps"] = vmodel.sweeps
    if record is not None:
        report = privacy_audit(record, net, part) if part is not None else None
        (out / "audit.jsonl").write_text(_audit_lines(record))
        if report is not None:
            summary["audit_violations"] = report.violations
            summary["audit_global_access"] = report.global_access
        else:
            summary["audit_global_access"] = True
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    _write_manifest(out, args, "solve")
    print(json.dumps(summary, indent=2))
    if args.require_convergence and not result.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    engines = args.engines.split(",")
    rows = bench_sweep(
        sizes, engines, iters=args.iters,
        subareas_per_area=args.subareas, seed=args.seed,
    )
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        bench_csv(rows, out / "bench.csv")
        (out / "bench.txt").write_text(bench_table(rows))
        _write_manifest(out, args, "bench")
    print(bench_table(rows), end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    net = load_network(args.network)
    sens = build_sensitivity(net)
    problem = load_problem(args.devices, net, sens)
    p, q = problem.p0.copy(), problem.q0.copy()
    if args.setpoints:
        doc = read_document(args.setpoints, "setpoints")
        for name, vec in (("p", p), ("q", q)):
            entries = doc.get(name)
            if not isinstance(entries, dict):
                raise NetworkError(f"setpoints document field {name!r} must be a JSON object")
            for key in entries:
                bus, _, ph = key.partition(":")
                try:
                    idx = net.flat_index(int(bus), ph)
                except ValueError as exc:
                    raise NetworkError(
                        f"setpoints document key {key!r} in {name!r} must be "
                        f"'bus:phase' for a bus and phase of the network ({exc})"
                    ) from exc
                vec[idx] = document_number(entries, key, None, "setpoints")
    div = compare_models(net, sens, p, q)
    lines = ["flat_index,v_linear,v_nonlinear,diff"]
    for i in range(net.n_flat):
        lines.append(
            f"{i},{div.v_linear[i]!r},{div.v_nonlinear[i]!r},{div.diff[i]!r}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "compare.csv").write_text(text)
        _write_manifest(out, args, "compare")
    else:
        print(text, end="")
    print(
        f"max |v_sweep - v_linear| = {div.max_abs:.3e} p.u.^2 "
        f"(rms {div.rms:.3e})",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlopf",
        description="Multi-level OPF solver for radial distribution feeders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="validate network/partition/device documents")
    pv.add_argument("--network", required=True)
    pv.add_argument("--partition")
    pv.add_argument("--devices")
    pv.set_defaults(func=cmd_validate)

    pp = sub.add_parser("partition", help="auto-partition a network")
    pp.add_argument("--network", required=True)
    pp.add_argument("--target-area-size", type=int, required=True)
    pp.add_argument("--target-subarea-size", type=int, default=0)
    pp.add_argument("--out")
    pp.set_defaults(func=cmd_partition)

    pg = sub.add_parser("gen", help="generate a synthetic feeder")
    pg.add_argument("--buses", type=int, required=True)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--trunk-depth", type=int, default=4)
    pg.add_argument("--phase-drop", type=float, default=0.25)
    pg.add_argument("--device-density", type=float, default=0.3)
    pg.add_argument("--load-scale", type=float, default=1.0)
    pg.add_argument("--vmin", type=float, default=0.95)
    pg.add_argument("--vmax", type=float, default=1.05)
    pg.add_argument("--target-area-size", type=int, default=None)
    pg.add_argument("--target-subarea-size", type=int, default=None)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_gen)

    ps = sub.add_parser("solve", help="run the primal-dual solver")
    ps.add_argument("--network", required=True)
    ps.add_argument("--devices", required=True)
    ps.add_argument("--partition")
    ps.add_argument("--engine", choices=("flat", "bilevel", "trilevel"), default="flat")
    ps.add_argument("--voltage-model", choices=("linear", "sweep"), default="linear")
    ps.add_argument("--iters", type=int, default=3000)
    ps.add_argument("--step-primal", type=float, default=3.5e-4)
    ps.add_argument("--step-dual", type=float, default=3.5e-3)
    ps.add_argument("--eta", type=float, default=1e-4)
    ps.add_argument("--tol", type=float, default=0.0)
    ps.add_argument("--audit", action="store_true")
    ps.add_argument("--require-convergence", action="store_true")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="engine timing/op-count sweep")
    pb.add_argument("--sizes", default="256,512,1024")
    pb.add_argument("--engines", default="flat,bilevel,trilevel")
    pb.add_argument("--iters", type=int, default=30)
    pb.add_argument("--subareas", type=int, default=4)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bench)

    pc = sub.add_parser("compare", help="nonlinear vs linear voltage models")
    pc.add_argument("--network", required=True)
    pc.add_argument("--devices", required=True)
    pc.add_argument("--setpoints", help="setpoints.json from a solve")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetworkError, ProblemError, ValueError) as exc:
        _error_record(None, "validation", str(exc))
        return EXIT_VALIDATION
    except (SolverError, SweepError) as exc:
        _error_record(None, "solver", str(exc))
        return EXIT_INTERNAL
    except OSError as exc:
        _error_record(None, "io", str(exc))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
