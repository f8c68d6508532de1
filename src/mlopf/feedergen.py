"""Seeded synthetic multi-phase radial feeders with devices and loads.

Stands in for proprietary-scale test systems: grows a random tree with a
three-phase trunk and probabilistic phase drops, draws per-segment
impedances in ranges that put a few-hundred-bus feeder at a realistic 3-8%
voltage drop under unit load scale, sprinkles controllable devices, and
fills the rest with background loads. Identical spec and seed reproduce
the same feeder byte for byte.

FeederSpec holds what a caller varies; these shape every feeder alike:

- ROOT_DEGREE: main feeders leaving the substation
- CHILD_WEIGHTS: probabilities of 0, 1, 2 and 3 children per frontier bus
- R_RANGE, X_RANGE: ranges of a segment's self resistance and reactance, p.u.
- MUTUAL_FRACTION: a mutual impedance over the mean of its two self impedances
- DEVICE_SPAN: half-width of every device's p and q box around zero
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import PHASE_CODE, PHASE_NAME, Bus, Line, Network, network_to_document
from .opf import V_MAX, V_MIN, Device, VoltageBounds, devices_document
from .partition import PartitionHierarchy, auto_partition, partition_to_document, size_targets


ROOT_DEGREE = 3
CHILD_WEIGHTS = (0.25, 0.45, 0.22, 0.08)
R_RANGE = (0.003, 0.015)
X_RANGE = (0.006, 0.03)
MUTUAL_FRACTION = 0.3
DEVICE_SPAN = 0.5


@dataclass(frozen=True)
class FeederSpec:
    n_buses: int                       # non-substation bus count
    trunk_depth: int = 4               # levels forced three-phase
    phase_drop: float = 0.25           # per-phase drop probability past the trunk
    device_density: float = 0.3        # fraction of (bus, phase) slots with a device
    load_scale: float = 1.0            # background load multiplier
    seed: int = 0

    def __post_init__(self):
        if self.n_buses < 1:
            raise ValueError("need at least one bus besides the substation")
        if not (0.0 <= self.phase_drop <= 1.0 and 0.0 <= self.device_density <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.trunk_depth < 0 or not 0.0 <= self.load_scale < np.inf:
            raise ValueError("need trunk_depth >= 0 and a finite load_scale >= 0")


@dataclass(frozen=True)
class GeneratedFeeder:
    net: Network
    devices: tuple[Device, ...]
    background: dict[tuple[int, str], tuple[float, float]]
    partition: PartitionHierarchy
    v_min: float
    v_max: float


def generate(
    spec: FeederSpec,
    target_area_size: Optional[int] = None,
    target_subarea_size: Optional[int] = None,
    v_min: float = V_MIN,
    v_max: float = V_MAX,
) -> GeneratedFeeder:
    """Generate a feeder, its devices and loads, and a suggested partition."""
    VoltageBounds.from_magnitudes(0, v_min, v_max)  # raises unless 0 < v_min < v_max < inf
    rng = np.random.default_rng(spec.seed)

    # Topology: fixed substation degree (the main feeders), then BFS growth
    # with a seeded child-count draw per frontier bus.
    parent = {0: None}
    depth = {0: 0}
    frontier = []
    next_id = 1
    for _ in range(min(ROOT_DEGREE, spec.n_buses)):
        parent[next_id] = 0
        depth[next_id] = 1
        frontier.append(next_id)
        next_id += 1
    counts = np.arange(len(CHILD_WEIGHTS))
    while next_id <= spec.n_buses:
        bus = frontier.pop(0)
        n_children = int(rng.choice(counts, p=CHILD_WEIGHTS))
        if not frontier and n_children == 0:
            n_children = 1  # keep growth alive until the target is met
        for _ in range(n_children):
            if next_id > spec.n_buses:
                break
            parent[next_id] = bus
            depth[next_id] = depth[bus] + 1
            frontier.append(next_id)
            next_id += 1

    # Phases: full trunk, then per-phase drops (never below one phase).
    phases: dict[int, tuple[str, ...]] = {0: ("a", "b", "c")}
    for bid in range(1, spec.n_buses + 1):
        inherited = phases[parent[bid]]
        if depth[bid] <= spec.trunk_depth or len(inherited) == 1:
            phases[bid] = inherited
            continue
        kept = [ph for ph in inherited if rng.random() >= spec.phase_drop]
        if not kept:
            kept = [inherited[int(rng.integers(len(inherited)))]]
        phases[bid] = tuple(kept)

    # Per-segment impedances: symmetric matrices with scaled mutual terms.
    buses = [Bus(id=0, phases=("a", "b", "c"), parent=None)]
    lines = []
    for bid in range(1, spec.n_buses + 1):
        buses.append(Bus(id=bid, phases=phases[bid], parent=parent[bid]))
        z = np.zeros((3, 3), dtype=np.complex128)
        codes = [PHASE_CODE[ph] for ph in phases[bid]]
        selfz = {}
        for c in codes:
            r = rng.uniform(*R_RANGE)
            x = rng.uniform(*X_RANGE)
            selfz[c] = complex(r, x)
            z[c, c] = selfz[c]
        for i, ci in enumerate(codes):
            for cj in codes[i + 1:]:
                mutual = MUTUAL_FRACTION * 0.5 * (selfz[ci] + selfz[cj])
                z[ci, cj] = mutual
                z[cj, ci] = mutual
        lines.append(Line(from_bus=parent[bid], to_bus=bid, z=z))
    net = Network(buses, lines)

    # Devices on a seeded subset of slots, background loads on the rest.
    devices = []
    background: dict[tuple[int, str], tuple[float, float]] = {}
    for k, c in zip(net.flat_bus_pos, net.flat_phase):
        bid = int(net.ids[k])
        ph = PHASE_NAME[int(c)]
        if rng.random() < spec.device_density:
            devices.append(
                Device(
                    bus=bid, phase=ph, p0=0.0, q0=0.0,
                    p_min=-DEVICE_SPAN, p_max=DEVICE_SPAN,
                    q_min=-DEVICE_SPAN, q_max=DEVICE_SPAN,
                )
            )
        else:
            pl = -spec.load_scale * rng.uniform(0.002, 0.006)
            ql = pl * rng.uniform(0.2, 0.5)
            background[(bid, ph)] = (pl, ql)

    part = auto_partition(net, *size_targets(spec.n_buses, target_area_size, target_subarea_size))

    return GeneratedFeeder(
        net=net,
        devices=tuple(devices),
        background=background,
        partition=part,
        v_min=v_min,
        v_max=v_max,
    )


def feeder_documents(feeder: GeneratedFeeder) -> tuple[dict, dict, dict]:
    """The three JSON documents (network, devices, partition) for a feeder."""
    return (
        network_to_document(feeder.net),
        devices_document(
            feeder.devices, dict(sorted(feeder.background.items())), feeder.v_min, feeder.v_max
        ),
        partition_to_document(feeder.partition),
    )
