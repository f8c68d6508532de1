"""Complexity benchmark harness.

Builds balanced single-phase feeders whose areas and subareas are exact
subtrees (a star of area subtrees, each a root plus a few chains), runs the
same solve under each coupling engine, and tabulates operation counts and
wall time. Coupling time and full-step time are clocked separately; the
reported ratio compares coupling time against the flat engine, which is the
quantity the multilevel split accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .coupling import check_engine_kind, make_engine
from .feedergen import R_RANGE, X_RANGE
from .network import PHASE_NAME, Bus, Line, Network
from .opf import Device, Problem, SolverConfig, make_problem
from .partition import Area, PartitionHierarchy, Subarea
from .sensitivity import build_sensitivity
from .solver import LinearVoltageModel, initial_state, run


def two_level_feeder(
    n_flat: int,
    n_areas: int,
    subareas_per_area: int,
    seed: int,
) -> tuple[Network, PartitionHierarchy]:
    """Balanced single-phase feeder with exact-subtree areas and subareas.

    The substation feeds n_areas area roots; each area root feeds up to
    subareas_per_area chains that become its subareas, with the root itself
    as the area remainder. Total non-substation buses equal n_flat.
    """
    if n_flat < n_areas or n_areas < 1:
        raise ValueError("need at least one bus per area")
    rng = np.random.default_rng(seed)
    sizes = [n_flat // n_areas] * n_areas
    for k in range(n_flat - sum(sizes)):
        sizes[k] += 1

    buses = [Bus(id=0, phases=("a", "b", "c"), parent=None)]
    lines = []
    next_id = 1

    def add_bus(parent_id: int) -> int:
        nonlocal next_id
        bid = next_id
        next_id += 1
        buses.append(Bus(id=bid, phases=("a",), parent=parent_id))
        z = np.zeros((3, 3), dtype=np.complex128)
        z[0, 0] = complex(rng.uniform(*R_RANGE), rng.uniform(*X_RANGE))
        lines.append(Line(from_bus=parent_id, to_bus=bid, z=z))
        return bid

    areas = []
    for k, size in enumerate(sizes):
        root = add_bus(0)
        n_chains = min(subareas_per_area, size - 1)
        subareas = []
        if n_chains > 0:
            lengths = [(size - 1) // n_chains] * n_chains
            for j in range((size - 1) - sum(lengths)):
                lengths[j] += 1
            for m, length in enumerate(lengths):
                tip = head = add_bus(root)
                for _ in range(length - 1):
                    tip = add_bus(tip)
                subareas.append(Subarea(index=m, root=head))
        areas.append(Area(index=k, root=root, subareas=tuple(subareas)))
    net = Network(buses, lines)
    part = PartitionHierarchy(areas=tuple(areas))
    return net, part


def bench_problem(net: Network, seed: int) -> Problem:
    """A loaded problem on a bench feeder: devices on a third of the slots.

    Loads are heavy enough to violate the lower bound, so the duals move
    and every benched iteration performs a real coupling computation. Bench
    feeders are shallow, so the voltage limits are a tight 0.999-1.001,
    which keeps the duals active through the whole run.
    """
    rng = np.random.default_rng(seed + 1)
    devices = []
    background = {}
    for k, c in zip(net.flat_bus_pos, net.flat_phase):
        bid = int(net.ids[k])
        ph = PHASE_NAME[int(c)]
        if rng.random() < 0.33:
            devices.append(Device(
                bus=bid, phase=ph, p0=0.0, q0=0.0,
                p_min=-0.5, p_max=0.5, q_min=-0.5, q_max=0.5,
            ))
        else:
            pl = -rng.uniform(0.012, 0.03)
            background[(bid, ph)] = (pl, 0.3 * pl)
    return make_problem(net, None, devices, background, v_min=0.999, v_max=1.001)


@dataclass(frozen=True)
class BenchRow:
    """One engine's solve at one size; each field is a column, width as in the table."""

    n: int = field(metadata={"width": 6})
    areas: int = field(metadata={"width": 6})
    engine: str = field(metadata={"width": 9})
    iters: int = field(metadata={"width": 6})
    coupling_ops: int = field(metadata={"width": 13})
    coupling_ns: int = field(metadata={"width": 13})
    step_ns: int = field(metadata={"width": 13})
    ratio_vs_flat: float = field(metadata={"width": 13})

    def cells(self, ratio_format: str) -> list[str]:
        """The column values as text; the last, the ratio, in ratio_format."""
        *head, ratio = (getattr(self, f.name) for f in fields(self))
        return [str(v) for v in head] + [format(ratio, ratio_format)]

    def csv_row(self) -> str:
        return ",".join(self.cells(".3f"))


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRow))
_WIDTHS = tuple(f.metadata["width"] for f in fields(BenchRow))


def bench_sweep(
    sizes: list[int],
    engines: list[str],
    iters: int,
    subareas_per_area: int,
    seed: int,
) -> list[BenchRow]:
    """Run the same solve per engine over a range of feeder sizes.

    Only the flat engine reads the dense R and X, so only it builds them.
    Each engine's solve runs three times and its row reports the fastest
    coupling and step times, so that one stall of a shared machine does
    not decide a ratio; the solves are deterministic, so iterations and
    op counts must agree across the three. An unknown engine name raises
    before any solve, and a size's ratios are taken once all its engines
    have run: a ratio is nan only where flat was not run.
    """
    for kind in engines:
        check_engine_kind(kind)
    rows: list[BenchRow] = []
    for n in sizes:
        n_areas = max(1, round(np.sqrt(n)))
        net, part = two_level_feeder(n, n_areas, subareas_per_area, seed=seed)
        problem = bench_problem(net, seed)
        sens = build_sensitivity(net)
        cfg = SolverConfig(max_iters=iters, residual_tol=0.0)
        vmodel = LinearVoltageModel(sens)
        runs = []
        for kind in engines:
            engine = make_engine(kind, sens=sens, net=net, part=part)
            results = [
                run(initial_state(problem, vmodel), problem, engine, vmodel, cfg)
                for _ in range(3)
            ]
            counts = {(r.state.iteration, r.trace.total_coupling_ops()) for r in results}
            assert len(counts) == 1, f"{kind} solves at n={n} differ: {sorted(counts)}"
            (ran, ops), = counts
            coupling_ns = min(r.total_coupling_ns for r in results)
            step_ns = min(r.total_step_ns for r in results)
            runs.append((kind, ran, ops, coupling_ns, step_ns))
        flat_ns = next((c for kind, _, _, c, _ in runs if kind == "flat"), 0)
        rows += [
            BenchRow(
                n=n,
                areas=n_areas,
                engine=kind,
                iters=ran,
                coupling_ops=ops,
                coupling_ns=coupling_ns,
                step_ns=step_ns,
                ratio_vs_flat=flat_ns / coupling_ns if flat_ns and coupling_ns else float("nan"),
            )
            for kind, ran, ops, coupling_ns, step_ns in runs
        ]
    return rows


def bench_csv(rows: list[BenchRow], path: str | Path | None = None) -> str:
    text = "\n".join([",".join(BENCH_COLUMNS)] + [r.csv_row() for r in rows]) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def bench_table(rows: list[BenchRow]) -> str:
    """Aligned text table; the ratio column compares coupling wall time vs flat."""
    lines = [BENCH_COLUMNS, *(r.cells(".2f") for r in rows)]
    return "".join("  ".join(map(str.rjust, cells, _WIDTHS)) + "\n" for cells in lines)


def fit_loglog(ns: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and r^2 of log(y) against log(n)."""
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
