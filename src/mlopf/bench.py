"""Complexity benchmark harness.

Builds balanced single-phase feeders whose areas and subareas are exact
subtrees (a star of area subtrees, each a root plus a few chains), runs the
same solve under each coupling engine, and tabulates operation counts and
wall time. Coupling time and full-step time are clocked separately; the
reported ratio compares coupling time against the flat engine, which is the
quantity the multilevel split accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import make_engine
from .feedergen import FeederSpec
from .network import Bus, Line, Network
from .opf import Device, SolverConfig, make_problem
from .partition import Area, PartitionHierarchy, Subarea
from .sensitivity import build_sensitivity
from .solver import LinearVoltageModel, initial_state, run


def two_level_feeder(
    n_flat: int,
    n_areas: int,
    subareas_per_area: int = 4,
    seed: int = 0,
) -> tuple[Network, PartitionHierarchy]:
    """Balanced single-phase feeder with exact-subtree areas and subareas.

    The substation feeds n_areas area roots; each area root feeds up to
    subareas_per_area chains that become its subareas, with the root itself
    as the area remainder. Total non-substation buses equal n_flat.
    """
    if n_flat < n_areas or n_areas < 1:
        raise ValueError("need at least one bus per area")
    rng = np.random.default_rng(seed)
    spec = FeederSpec(n_buses=1)  # reuse its impedance ranges
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
        z[0, 0] = complex(rng.uniform(*spec.r_range), rng.uniform(*spec.x_range))
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


def bench_problem(net: Network, seed: int = 0, v_min: float = 0.95, v_max: float = 1.05):
    """A loaded problem on a bench feeder: devices on a third of the slots.

    Loads are heavy enough to violate the lower bound, so the duals move
    and every benched iteration performs a real coupling computation.
    """
    rng = np.random.default_rng(seed + 1)
    sens = build_sensitivity(net)
    devices = []
    background = {}
    for k, c in zip(net.flat_bus_pos, net.flat_phase):
        bid = net.buses[int(k)].id
        ph = "abc"[int(c)]
        if rng.random() < 0.33:
            devices.append(Device(
                bus=bid, phase=ph, p0=0.0, q0=0.0,
                p_min=-0.5, p_max=0.5, q_min=-0.5, q_max=0.5,
            ))
        else:
            pl = -rng.uniform(0.012, 0.03)
            background[(bid, ph)] = (pl, 0.3 * pl)
    problem = make_problem(net, sens, devices, background, v_min=v_min, v_max=v_max)
    return problem, sens


@dataclass(frozen=True)
class BenchRow:
    n: int
    areas: int
    engine: str
    iters: int
    coupling_ops: int
    coupling_ns: int
    step_ns: int
    ratio_vs_flat: float

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.n), str(self.areas), self.engine, str(self.iters),
                str(self.coupling_ops), str(self.coupling_ns), str(self.step_ns),
                f"{self.ratio_vs_flat:.3f}",
            ]
        )


BENCH_COLUMNS = (
    "n", "areas", "engine", "iters",
    "coupling_ops", "coupling_ns", "step_ns", "ratio_vs_flat",
)


def bench_sweep(
    sizes: list[int],
    engines: list[str],
    iters: int = 30,
    subareas_per_area: int = 4,
    seed: int = 0,
) -> list[BenchRow]:
    """Run the same solve per engine over a range of feeder sizes."""
    rows: list[BenchRow] = []
    for n in sizes:
        n_areas = max(1, round(np.sqrt(n)))
        net, part = two_level_feeder(n, n_areas, subareas_per_area, seed=seed)
        # Bench feeders are shallow, so tight bounds keep the duals active
        # and every iteration exercises the coupling path.
        problem, sens = bench_problem(net, seed=seed, v_min=0.999, v_max=1.001)
        cfg = SolverConfig(max_iters=iters, residual_tol=0.0)
        vmodel = LinearVoltageModel(sens)
        flat_coupling_ns = None
        for kind in engines:
            engine = make_engine(kind, sens=sens, net=net, part=part)
            state = initial_state(problem, vmodel)
            result = run(state, problem, engine, vmodel, cfg)
            if kind == "flat":
                flat_coupling_ns = result.total_coupling_ns
            ratio = (
                flat_coupling_ns / result.total_coupling_ns
                if flat_coupling_ns and result.total_coupling_ns
                else float("nan")
            )
            rows.append(
                BenchRow(
                    n=n,
                    areas=n_areas,
                    engine=kind,
                    iters=result.state.iteration,
                    coupling_ops=result.trace.total_coupling_ops(),
                    coupling_ns=result.total_coupling_ns,
                    step_ns=result.total_step_ns,
                    ratio_vs_flat=ratio,
                )
            )
    return rows


def bench_csv(rows: list[BenchRow], path: str | Path | None = None) -> str:
    text = "\n".join([",".join(BENCH_COLUMNS)] + [r.csv_row() for r in rows]) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def bench_table(rows: list[BenchRow]) -> str:
    """Aligned text table; the ratio column compares coupling wall time vs flat."""
    header = [c.rjust(w) for c, w in zip(BENCH_COLUMNS, _WIDTHS)]
    out = ["  ".join(header)]
    for r in rows:
        cells = [
            str(r.n), str(r.areas), r.engine, str(r.iters),
            str(r.coupling_ops), str(r.coupling_ns), str(r.step_ns),
            f"{r.ratio_vs_flat:.2f}",
        ]
        out.append("  ".join(c.rjust(w) for c, w in zip(cells, _WIDTHS)))
    return "\n".join(out) + "\n"


_WIDTHS = (6, 6, 9, 6, 13, 13, 13, 13)


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
