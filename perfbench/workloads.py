"""The benchmark's workloads and the documents they are solved from.

Each workload fixes a generated feeder (topology, impedances, devices) and
a solver configuration. The run's seed draws a load snapshot on that
feeder: every background load is scaled by its own factor in
[1 - LOAD_JITTER, 1 + LOAD_JITTER]. The feeder itself is held at
FEEDER_SEED because whole new feeders change the work of a solve by
multiples (a 300-bus feeder at feeder seed 2 needs more than 80,000
iterations), which would measure the generator rather than the solver.
The jitter is small for the same reason: at 1% the feedback workload's
iteration count already moves by +-12% between seeds, and at 5% some seeds
miss the converge workload's tolerance within 40,000 iterations.
An input that cannot be solved is reported as a failed run, never
skipped or swapped for another seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

FEEDER_SEED = 0
LOAD_JITTER = 0.001


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_buses: int
    load_scale: float
    partition_targets: tuple[int, int]  # area and subarea size targets
    auto_partition: bool   # partition during setup instead of loading the document
    engine: str            # flat | trilevel
    voltage_model: str     # linear | sweep
    step_primal: float
    step_dual: float
    residual_tol: float    # 0 runs the whole iteration budget
    max_iters: int
    v_slack: float         # squared-voltage slack on the bounds of a converged solve
    eta: float = 1e-4

    @property
    def converges(self) -> bool:
        return self.residual_tol > 0

    def smoke(self) -> "Workload":
        """The same workload on a feeder small enough for a test."""
        return dataclasses.replace(
            self,
            n_buses=30,
            load_scale=20.0,  # undervolted at 30 buses, so the duals work
            partition_targets=(10, 4),
            max_iters=self.max_iters if self.converges else 20,
        )

    def solver_config(self) -> dict:
        fields = dataclasses.asdict(self)
        del fields["why"]
        return fields


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uv300-converge",
            why=(
                "the paper's undervoltage scenario solved to a stated accuracy; "
                "many small iterations, so coupling and per-iteration overhead dominate"
            ),
            n_buses=300, load_scale=1.8, partition_targets=(90, 28),
            auto_partition=False, engine="trilevel", voltage_model="linear",
            step_primal=5e-3, step_dual=5e-2, residual_tol=1e-10,
            max_iters=40000, v_slack=1e-3,
        ),
        Workload(
            name="gen4k-fixed",
            why=(
                "4,049 flat indices on a fixed iteration budget; the dense N^2 "
                "sensitivity build and voltage map dominate set-up, step and memory"
            ),
            n_buses=4000, load_scale=0.05, partition_targets=(400, 100),
            auto_partition=True, engine="trilevel", voltage_model="linear",
            step_primal=1e-4, step_dual=1e-3, residual_tol=0.0,
            max_iters=100, v_slack=1e-3,
        ),
        Workload(
            name="uv300-feedback",
            why=(
                "the undervoltage input with nonlinear sweep feedback and the flat "
                "engine; the power-flow sweep dominates, coupling barely runs"
            ),
            n_buses=300, load_scale=1.8, partition_targets=(90, 28),
            auto_partition=False, engine="flat", voltage_model="sweep",
            step_primal=5e-3, step_dual=5e-2, residual_tol=1e-4,
            max_iters=40000, v_slack=2e-3,
        ),
    )
}


def write_inputs(
    workload: Workload, seed: int, out: Path, feeder_seed: int = FEEDER_SEED
) -> None:
    """Generate the workload's documents for one seed and write them to out.

    Writes network.json, devices.json and partition.json as ``mlopf gen``
    would, plus workload.json with the solver configuration.
    """
    import numpy as np

    from mlopf import FeederSpec, feeder_documents, generate

    area, subarea = workload.partition_targets
    feeder = generate(
        FeederSpec(n_buses=workload.n_buses, load_scale=workload.load_scale, seed=feeder_seed),
        target_area_size=area,
        target_subarea_size=subarea,
    )
    loads = sorted(feeder.background.items())
    factors = 1.0 + LOAD_JITTER * np.random.default_rng(seed).uniform(-1.0, 1.0, len(loads))
    feeder = dataclasses.replace(
        feeder,
        background={
            key: (p * float(f), q * float(f)) for (key, (p, q)), f in zip(loads, factors)
        },
    )
    out.mkdir(parents=True, exist_ok=True)
    names = ("network.json", "devices.json", "partition.json")
    for name, doc in zip(names, feeder_documents(feeder)):
        (out / name).write_text(json.dumps(doc))
    (out / "workload.json").write_text(json.dumps(workload.solver_config()))
