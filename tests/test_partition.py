"""Partition validation, greedy auto-clustering, per-scope dual aggregates."""

from __future__ import annotations

import numpy as np
import pytest

from mlopf.coupling import MultilevelEngine
from mlopf.feedergen import FeederSpec, generate
from mlopf.network import Bus, Line, Network
from mlopf.partition import (
    Area,
    PartitionHierarchy,
    Subarea,
    auto_partition,
    load_partition,
    partition_to_document,
    subtree_ids,
    unclustered,
    validate_partition,
)

from conftest import fig_feeder, random_network


def path_network(n: int) -> Network:
    buses = [Bus(0, ("a", "b", "c"), None)]
    lines = []
    for bid in range(1, n + 1):
        buses.append(Bus(bid, ("a",), bid - 1))
        z = np.zeros((3, 3), dtype=np.complex128)
        z[0, 0] = 0.01 + 0.02j
        lines.append(Line(bid - 1, bid, z))
    return Network(buses, lines)


def star_network(n_leaves: int) -> Network:
    buses = [Bus(0, ("a", "b", "c"), None)]
    lines = []
    for bid in range(1, n_leaves + 1):
        buses.append(Bus(bid, ("a",), 0))
        z = np.zeros((3, 3), dtype=np.complex128)
        z[0, 0] = 0.01 + 0.02j
        lines.append(Line(0, bid, z))
    return Network(buses, lines)


def test_degenerate_partition_everything_unclustered(fig_net):
    part = PartitionHierarchy(areas=())
    assert validate_partition(fig_net, part) == []
    assert unclustered(fig_net, part) == {b.id for b in fig_net.buses if b.id != 0}


def with_subareas(*subareas):
    """The reference layout with area 2's subareas replaced."""
    return PartitionHierarchy(areas=(
        Area(0, 17, ()),
        Area(1, 6, ()),
        Area(2, 21, tuple(subareas)),
    ))


def test_reference_layout_partition_is_valid(fig_net):
    part = with_subareas(Subarea(0, 22), Subarea(1, 27))
    assert validate_partition(fig_net, part) == []
    assert unclustered(fig_net, part) == {1, 2, 3, 4, 5, 10, 11, 12}


def test_subarea_cases_start_from_a_valid_layout(fig_net):
    part = with_subareas(Subarea(0, 22), Subarea(1, 28))
    assert validate_partition(fig_net, part) == []


def test_overlapping_subareas_detected(fig_net):
    part = with_subareas(Subarea(0, 22), Subarea(1, 23))
    problems = validate_partition(fig_net, part)
    assert "area 2 subarea 1: bus 23 already belongs to area 2 subarea 0" in problems
    assert "area 2 subarea 1: bus 24 already belongs to area 2 subarea 0" in problems
    assert len(problems) == 2


def test_subarea_root_outside_its_area_detected(fig_net):
    part = with_subareas(Subarea(0, 18))
    assert validate_partition(fig_net, part) == [
        "area 2 subarea 0: root 18 is outside the area"
    ]


def test_overlapping_areas_detected(fig_net):
    part = PartitionHierarchy(areas=(Area(0, 21, ()), Area(1, 27, ())))
    problems = validate_partition(fig_net, part)
    assert problems == [
        f"area 1: bus {b} already belongs to area 0" for b in (27, 28, 29)
    ]


def test_substation_area_root_is_flagged(fig_net):
    # The area is not checked further, so its subarea and its claim on
    # every bus go unreported.
    ref = with_subareas(Subarea(0, 22))
    part = PartitionHierarchy(areas=(Area(0, 0, (Subarea(0, 18),)),) + ref.areas[1:])
    assert validate_partition(fig_net, part) == ["area 0: the substation cannot root an area"]


def test_greedy_on_path_cuts_one_deep_subtree():
    # Only full subtrees qualify, so a path admits a single clustered
    # suffix: the deepest bus whose subtree first reaches the target.
    net = path_network(40)
    part = auto_partition(net, 10)
    assert validate_partition(net, part) == []
    assert part.n_areas == 1
    area = part.areas[0]
    assert area.root == 31
    assert subtree_ids(net, area.root) == frozenset(range(31, 41))
    assert unclustered(net, part) == frozenset(range(1, 31))


def test_greedy_on_star_leaves_everything_unclustered():
    net = star_network(20)
    part = auto_partition(net, 5)
    assert part.n_areas == 0
    assert unclustered(net, part) == frozenset(range(1, 21))
    assert validate_partition(net, part) == []


def test_target_one_makes_leaf_singletons():
    net = fig_feeder()
    part = auto_partition(net, 1)
    assert validate_partition(net, part) == []
    leaves = {b.id for b in net.buses} - {b.parent for b in net.buses} - {0}
    assert {a.root for a in part.areas} == leaves
    assert all(len(subtree_ids(net, a.root)) == 1 for a in part.areas)


def test_auto_partition_is_deterministic():
    rng = np.random.default_rng(42)
    net = random_network(rng, 60)
    p1 = auto_partition(net, 12, 4)
    p2 = auto_partition(net, 12, 4)
    assert p1 == p2


def test_auto_partition_roots_are_pinned():
    # Roots the greedy rule chose on the generated feeders the benchmark and
    # the acceptance suite use; a change to the tree walk must not move them.
    uv = generate(FeederSpec(n_buses=300, seed=0, load_scale=1.8))
    assert partition_to_document(auto_partition(uv.net, 90, 28)) == {"areas": [
        {"root": 27, "subareas": [{"root": 104}]},
        {"root": 28, "subareas": [{"root": 68}, {"root": 78}]},
    ]}
    big = generate(FeederSpec(n_buses=1000, seed=0))
    assert partition_to_document(auto_partition(big.net, 100, 25)) == {"areas": [
        {"root": 72, "subareas": [{"root": 96}, {"root": 214}, {"root": 276}]},
        {"root": 79, "subareas": [{"root": 157}, {"root": 207}]},
        {"root": 86, "subareas": [{"root": 139}, {"root": 178}]},
        {"root": 88, "subareas": [
            {"root": 242}, {"root": 243}, {"root": 308}, {"root": 309},
        ]},
        {"root": 100, "subareas": [{"root": 219}, {"root": 280}, {"root": 282}]},
        {"root": 117, "subareas": [{"root": 253}, {"root": 257}, {"root": 323}]},
    ]}


@pytest.mark.parametrize("seed", range(5))
def test_auto_partition_valid_and_sized(seed):
    rng = np.random.default_rng(800 + seed)
    net = random_network(rng, int(rng.integers(20, 80)))
    target = int(rng.integers(4, 15))
    part = auto_partition(net, target, max(1, target // 3))
    assert validate_partition(net, part) == []
    for area in part.areas:
        members = subtree_ids(net, area.root)
        assert target <= len(members) <= 2 * target
        for sub in area.subareas:
            assert subtree_ids(net, sub.root) <= members


@pytest.mark.parametrize("seed", range(5))
def test_every_bus_lands_in_exactly_one_scope(seed):
    rng = np.random.default_rng(900 + seed)
    net = random_network(rng, 50)
    part = auto_partition(net, 10, 4)
    seen: dict[int, int] = {}
    for area in part.areas:
        members = subtree_ids(net, area.root)
        for bid in members:
            assert bid not in seen
            seen[bid] = area.index
        inner: dict[int, int] = {}
        for sub in area.subareas:
            for bid in subtree_ids(net, sub.root):
                assert bid not in inner and bid in members
                inner[bid] = sub.index
    public = unclustered(net, part)
    assert not public & set(seen)
    assert set(seen) | public == {b.id for b in net.buses if b.id != 0}


@pytest.mark.parametrize("seed", range(5))
def test_cross_area_pairs_collapse_to_root_pairs_exactly(seed):
    # The computational license for the aggregated engines: any cross-area
    # pair shares the root pair's common path, and an unclustered bus pairs
    # with an area through the area root alone.
    rng = np.random.default_rng(1000 + seed)
    net = random_network(rng, 60)
    part = auto_partition(net, 12)
    areas = part.areas
    for k in range(len(areas)):
        mk = sorted(subtree_ids(net, areas[k].root))
        for h in range(k + 1, len(areas)):
            mh = sorted(subtree_ids(net, areas[h].root))
            for _ in range(6):
                i = int(rng.choice(mk))
                j = int(rng.choice(mh))
                for phi, psi in (("a", "a"), ("b", "a")):
                    assert net.common_path_impedance(i, j, phi, psi) == \
                        net.common_path_impedance(
                            areas[k].root, areas[h].root, phi, psi
                        )
        for j in sorted(unclustered(net, part))[:8]:
            i = int(rng.choice(mk))
            assert net.common_path_impedance(i, j, "a", "a") == \
                net.common_path_impedance(areas[k].root, j, "a", "a")


def area_messages(messages):
    return {m.scope[1]: m.sums for m in messages if m.scope[0] == "area"}


def test_aggregates_cancel_when_duals_match(fig_net):
    part = auto_partition(fig_net, 4, 2)
    mu = np.random.default_rng(0).uniform(0, 1, fig_net.n_flat)
    for depth in (1, 2):
        messages = MultilevelEngine(fig_net, part, depth).compute(mu, mu).messages
        assert len(area_messages(messages)) == part.n_areas
        assert all(m.sums == (0.0, 0.0, 0.0) for m in messages)
    assert any(m.scope[0] == "subarea" for m in messages)


def test_aggregate_hand_sum():
    net = path_network(3)
    part = PartitionHierarchy(areas=(Area(0, 1, (Subarea(0, 3),)),))
    mu_up = np.array([0.1, 0.2, 0.0])
    mu_lo = np.array([0.0, 0.0, 0.3])
    for depth in (1, 2):
        messages = MultilevelEngine(net, part, depth).compute(mu_up, mu_lo).messages
        sums = area_messages(messages)[0]
        assert sums[0] == pytest.approx(0.0)
        assert sums[1] == 0.0 and sums[2] == 0.0
    assert messages[0].scope == ("subarea", 0, 0)
    assert messages[0].sums == (-0.3, 0.0, 0.0)


def test_aggregates_reconstruct_total(fig_net):
    part = auto_partition(fig_net, 4, 2)
    rng = np.random.default_rng(3)
    mu_up = rng.uniform(0, 1, fig_net.n_flat)
    mu_lo = rng.uniform(0, 1, fig_net.n_flat)
    d = mu_up - mu_lo
    unc = 0.0
    for bid in unclustered(fig_net, part):
        k = fig_net.bus_pos(bid)
        for c in range(3):
            idx = fig_net.index_of[k, c]
            if idx >= 0:
                unc += d[idx]
    for depth in (1, 2):
        messages = MultilevelEngine(fig_net, part, depth).compute(mu_up, mu_lo).messages
        total = sum(sum(s) for s in area_messages(messages).values())
        assert total + unc == pytest.approx(d.sum(), abs=1e-12)


def test_partition_document_round_trip(fig_net):
    part = auto_partition(fig_net, 4, 2)
    doc = partition_to_document(part)
    loaded = load_partition(doc, fig_net)
    assert loaded == part


def test_members_derived_from_roots(fig_net):
    doc = {"areas": [{"root": 21, "subareas": [{"root": 27}]}]}
    part = load_partition(doc, fig_net)
    assert part == PartitionHierarchy(areas=(Area(0, 21, (Subarea(0, 27),)),))
    area = subtree_ids(fig_net, 21)
    assert area == frozenset({21, 22, 23, 24, 27, 28, 29})
    assert subtree_ids(fig_net, 27) == frozenset({27, 28, 29})
    assert area - subtree_ids(fig_net, 27) == frozenset({21, 22, 23, 24})
    assert unclustered(fig_net, part) == {b.id for b in fig_net.buses if b.id != 0} - area
    assert validate_partition(fig_net, part) == []


@pytest.mark.parametrize("targets", [(0,), (4, -1)], ids=["area-0", "subarea-negative"])
def test_auto_partition_rejects_a_non_positive_target(targets):
    with pytest.raises(ValueError, match="^size targets must be positive$"):
        auto_partition(fig_feeder(), *targets)
