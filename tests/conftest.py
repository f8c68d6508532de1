"""Shared fixtures: small reference feeders and brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from mlopf import sensitivity
from mlopf.network import Bus, Line, Network, load_network


def chain_doc():
    """3-bus single-phase chain with the hand-checked impedances."""
    return {
        "base_v_squared": 1.0,
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": ["a"], "parent": 0},
            {"id": 2, "phases": ["a"], "parent": 1},
        ],
        "lines": [
            {"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}},
            {"from": 1, "to": 2, "z": {"aa": [0.005, 0.01]}},
        ],
    }


@pytest.fixture
def chain_net():
    return load_network(chain_doc())


@pytest.fixture
def two_bus_net():
    return load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
        }
    )


@pytest.fixture
def dense_builds(monkeypatch):
    """The networks whose dense R and X are built during the test, in order."""
    build, builds = sensitivity.dense_sensitivity, []

    def counted(net):
        builds.append(net)
        return build(net)

    monkeypatch.setattr(sensitivity, "dense_sensitivity", counted)
    return builds


def refuse_dense_build(monkeypatch):
    """Make the dense R and X build raise while monkeypatch's patches hold."""
    def refuse(net):
        raise AssertionError("the dense sensitivities were built")

    monkeypatch.setattr(sensitivity, "dense_sensitivity", refuse)


def fig_feeder() -> Network:
    """Hand-built feeder mirroring the clustered test-system layout.

    Three areas root at buses 17, 6, and 21; the area at 21 holds two
    subsubtrees rooted at 22 and 27. Buses 10 and 27 sit in branches that
    diverge at bus 4, so their shared path runs over lines (1,2) and (2,4);
    the substation link (0,1) carries zero impedance.
    """
    def z(r, x, phases="abc"):
        m = np.zeros((3, 3), dtype=np.complex128)
        for ph in phases:
            c = "abc".index(ph)
            m[c, c] = complex(r, x)
        return m

    buses = [
        Bus(0, ("a", "b", "c"), None),
        Bus(1, ("a", "b", "c"), 0),
        Bus(2, ("a", "b", "c"), 1),
        Bus(3, ("a", "b", "c"), 2),
        Bus(4, ("a", "b", "c"), 2),
        Bus(5, ("a", "b", "c"), 4),
        Bus(6, ("a", "b"), 5),
        Bus(7, ("a", "b"), 6),
        Bus(8, ("a",), 7),
        Bus(9, ("b",), 6),
        Bus(10, ("a",), 4),
        Bus(11, ("a",), 10),
        Bus(12, ("a", "b", "c"), 4),
        Bus(17, ("a", "b", "c"), 3),
        Bus(18, ("a", "b", "c"), 17),
        Bus(19, ("a", "c"), 18),
        Bus(20, ("b",), 18),
        Bus(21, ("a", "b", "c"), 12),
        Bus(22, ("a", "b"), 21),
        Bus(23, ("a", "b"), 22),
        Bus(24, ("a",), 23),
        Bus(27, ("a", "b", "c"), 21),
        Bus(28, ("a", "c"), 27),
        Bus(29, ("a",), 28),
    ]
    lines = [
        Line(0, 1, np.zeros((3, 3), dtype=np.complex128)),  # substation link
        Line(1, 2, z(0.004, 0.009)),
        Line(2, 3, z(0.006, 0.012)),
        Line(2, 4, z(0.005, 0.011)),
        Line(4, 5, z(0.007, 0.013)),
        Line(5, 6, z(0.008, 0.015, "ab")),
        Line(6, 7, z(0.004, 0.008, "ab")),
        Line(7, 8, z(0.006, 0.012, "a")),
        Line(6, 9, z(0.005, 0.01, "b")),
        Line(4, 10, z(0.009, 0.02, "a")),
        Line(10, 11, z(0.003, 0.007, "a")),
        Line(4, 12, z(0.008, 0.018)),
        Line(3, 17, z(0.01, 0.02)),
        Line(17, 18, z(0.004, 0.009)),
        Line(18, 19, z(0.005, 0.012, "ac")),
        Line(18, 20, z(0.007, 0.014, "b")),
        Line(12, 21, z(0.006, 0.013)),
        Line(21, 22, z(0.005, 0.01, "ab")),
        Line(22, 23, z(0.004, 0.009, "ab")),
        Line(23, 24, z(0.006, 0.011, "a")),
        Line(21, 27, z(0.007, 0.015)),
        Line(27, 28, z(0.004, 0.01, "ac")),
        Line(28, 29, z(0.005, 0.009, "a")),
    ]
    return Network(buses, lines)


@pytest.fixture(name="fig_net")
def fig_net_fixture():
    return fig_feeder()


def random_network(
    rng: np.random.Generator,
    n_buses: int,
    multi_phase: bool = True,
    symmetric: bool = True,
    mutual: str = "complex",
) -> Network:
    """Random radial feeder by seeded parent attachment.

    Parents are drawn among recently created buses to keep a mix of depth
    and branching; phases drop monotonically when multi_phase is set.
    mutual picks the off-diagonal impedance style: "complex", "real"
    (resistive coupling only), or "none" (phase-decoupled lines).
    """
    parents = {1: 0}
    for bid in range(2, n_buses + 1):
        window = max(1, bid // 2)
        parents[bid] = int(rng.integers(max(1, bid - window), bid))
    phases = {0: ("a", "b", "c")}
    for bid in range(1, n_buses + 1):
        inherited = phases[parents.get(bid, 0)]
        if not multi_phase:
            phases[bid] = ("a",)
        elif len(inherited) > 1 and rng.random() < 0.3:
            keep = sorted(
                rng.choice(len(inherited), size=int(rng.integers(1, len(inherited))),
                           replace=False)
            )
            phases[bid] = tuple(inherited[k] for k in keep)
        else:
            phases[bid] = inherited
    buses = [Bus(0, ("a", "b", "c"), None)]
    lines = []
    for bid in range(1, n_buses + 1):
        buses.append(Bus(bid, phases[bid], parents[bid]))
        codes = ["abc".index(ph) for ph in phases[bid]]
        z = np.zeros((3, 3), dtype=np.complex128)
        for c in codes:
            z[c, c] = complex(rng.uniform(0.002, 0.02), rng.uniform(0.004, 0.04))
        for i, ci in enumerate(codes):
            for cj in codes[i + 1:]:
                if mutual == "none":
                    continue
                m = complex(
                    rng.uniform(0.0005, 0.005),
                    0.0 if mutual == "real" else rng.uniform(0.001, 0.01),
                )
                z[ci, cj] = m
                z[cj, ci] = m if symmetric else m * complex(rng.uniform(0.5, 1.5))
        lines.append(Line(parents[bid], bid, z))
    return Network(buses, lines)


def long_chain(n_buses: int) -> Network:
    """Single-phase chain 0 - 1 - ... - n_buses: the deepest tree of its size.

    Line impedances are small enough that a light load on every bus still
    gives a solvable power flow.
    """
    rng = np.random.default_rng(n_buses)
    buses = [Bus(0, ("a", "b", "c"), None)]
    lines = []
    for bid in range(1, n_buses + 1):
        buses.append(Bus(bid, ("a",), bid - 1))
        z = np.zeros((3, 3), dtype=np.complex128)
        z[0, 0] = complex(rng.uniform(1e-5, 5e-5), rng.uniform(2e-5, 1e-4))
        lines.append(Line(bid - 1, bid, z))
    return Network(buses, lines)


def broom_feeder(n_leaves: int) -> Network:
    """One three-phase bus below the substation with n_leaves single-phase leaves."""
    rng = np.random.default_rng(7)
    buses = [Bus(0, ("a", "b", "c"), None), Bus(1, ("a", "b", "c"), 0)]
    lines = [Line(0, 1, np.diag(rng.uniform(1e-3, 1e-2, 3) * (1 + 2j)))]
    for bid in range(2, n_leaves + 2):
        ph = bid % 3
        z = np.zeros((3, 3), dtype=np.complex128)
        z[ph, ph] = complex(*rng.uniform(1e-3, 1e-2, 2))
        buses.append(Bus(bid, ("abc"[ph],), 1))
        lines.append(Line(1, bid, z))
    return Network(buses, lines)


def brute_force_path(net: Network, bus_id: int) -> list[tuple[int, int]]:
    """Root path by plain parent walking on the Bus records."""
    path = []
    bus = net.bus(bus_id)
    while bus.parent is not None:
        path.append((bus.parent, bus.id))
        bus = net.bus(bus.parent)
    path.reverse()
    return path


def brute_force_common_path_impedance(net, i, j, phi, psi) -> complex:
    """Set-intersect the two root paths and sum line entries directly.

    Summation runs substation-outward, the canonical order of a root path,
    which also makes the comparison against the prefix-sum implementation
    exact rather than within float reassociation noise.
    """
    in_j = set(brute_force_path(net, j))
    a, b = "abc".index(phi), "abc".index(psi)
    total = 0j
    for edge in brute_force_path(net, i):
        if edge in in_j:
            total += net.line_to(edge[1]).z[a, b]
    return total


def random_duals(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
