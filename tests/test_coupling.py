"""Coupling engines: equivalence, op counts, messages, privacy audit."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from mlopf import coupling
from mlopf.bench import two_level_feeder
from mlopf.coupling import (
    DualRead,
    EngineError,
    FlatEngine,
    FlowRecord,
    MultilevelEngine,
    ZAccess,
    privacy_audit,
)
from mlopf.feedergen import FeederSpec, generate
from mlopf.network import load_network
from mlopf.partition import (
    Area,
    PartitionHierarchy,
    auto_partition,
    validate_partition,
)
from mlopf.sensitivity import build_sensitivity

from conftest import fig_feeder, random_duals, random_network


def equivalence_tol(g_flat: np.ndarray) -> float:
    return 1e-9 * (1.0 + float(np.max(np.abs(g_flat), initial=0.0)))


def test_flat_zero_when_duals_cancel(fig_net):
    sens = build_sensitivity(fig_net)
    mu = np.random.default_rng(0).uniform(0, 1, sens.n)
    res = FlatEngine(sens).compute(mu, mu)
    assert np.all(res.g_p == 0.0)
    assert np.all(res.g_q == 0.0)


def test_flat_scalar_product():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
        }
    )
    sens = build_sensitivity(net)  # r == [[0.02]]
    res = FlatEngine(sens).compute(np.array([0.5]), np.array([0.0]))
    assert res.g_p[0] == pytest.approx(0.01)
    assert res.op_count == 4


def test_flat_transpose_matches_plain_product_on_decoupled_feeder():
    rng = np.random.default_rng(2)
    net = random_network(rng, 25, mutual="none")
    sens = build_sensitivity(net)
    d = rng.uniform(0, 1, sens.n)
    np.testing.assert_allclose(sens.r.T @ d, sens.r @ d, rtol=1e-12, atol=1e-14)


def test_flat_op_count_is_four_n_squared(fig_net):
    sens = build_sensitivity(fig_net)
    res = FlatEngine(sens).compute(np.zeros(sens.n), np.zeros(sens.n))
    assert res.op_count == 4 * sens.n * sens.n


def test_degenerate_partition_reduces_bilevel_to_flat(fig_net):
    sens = build_sensitivity(fig_net)
    ids = frozenset(b.id for b in fig_net.buses if b.id != 0)
    part = PartitionHierarchy(areas=(), unclustered=ids)
    mu_up, mu_lo = random_duals(np.random.default_rng(1), sens.n)
    ref = FlatEngine(sens).compute(mu_up, mu_lo)
    res = MultilevelEngine(fig_net, part, 1).compute(mu_up, mu_lo)
    scale = 1.0 + np.max(np.abs(ref.g_p))
    assert np.max(np.abs(res.g_p - ref.g_p)) / scale < 1e-12
    assert np.max(np.abs(res.g_q - ref.g_q)) / scale < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_bilevel_matches_flat_on_random_feeders(seed):
    rng = np.random.default_rng(1100 + seed)
    net = random_network(rng, int(rng.integers(25, 60)))
    part = auto_partition(net, int(rng.integers(5, 14)))
    sens = build_sensitivity(net)
    mu_up, mu_lo = random_duals(rng, sens.n)
    ref = FlatEngine(sens).compute(mu_up, mu_lo)
    res = MultilevelEngine(net, part, 1).compute(mu_up, mu_lo)
    tol = equivalence_tol(ref.g_p)
    assert np.max(np.abs(res.g_p - ref.g_p)) < tol
    assert np.max(np.abs(res.g_q - ref.g_q)) < equivalence_tol(ref.g_q)


@pytest.mark.parametrize("seed", range(8))
def test_trilevel_matches_flat_on_random_feeders(seed):
    rng = np.random.default_rng(1200 + seed)
    net = random_network(rng, int(rng.integers(40, 80)))
    part = auto_partition(net, int(rng.integers(10, 20)), 4)
    sens = build_sensitivity(net)
    mu_up, mu_lo = random_duals(rng, sens.n)
    ref = FlatEngine(sens).compute(mu_up, mu_lo)
    res = MultilevelEngine(net, part, 2).compute(mu_up, mu_lo)
    assert np.max(np.abs(res.g_p - ref.g_p)) < equivalence_tol(ref.g_p)
    assert np.max(np.abs(res.g_q - ref.g_q)) < equivalence_tol(ref.g_q)


def test_single_bus_areas_have_zero_inter_area_coupling():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
                {"id": 2, "phases": ["a"], "parent": 0},
            ],
            "lines": [
                {"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}},
                {"from": 0, "to": 2, "z": {"aa": [0.03, 0.06]}},
            ],
        }
    )
    assert net.common_path_impedance(1, 2, "a", "a") == 0
    part = PartitionHierarchy(
        areas=(
            Area(0, 1, frozenset({1}), (), frozenset({1})),
            Area(1, 2, frozenset({2}), (), frozenset({2})),
        ),
        unclustered=frozenset(),
    )
    sens = build_sensitivity(net)
    mu_up = np.array([0.7, 0.3])
    res = MultilevelEngine(net, part, 1).compute(mu_up, np.zeros(2))
    # No shared path: each index only feels its own dual.
    np.testing.assert_allclose(res.g_p, sens.r.diagonal() * mu_up, atol=1e-15)


def test_zero_dual_annihilation_all_engines(fig_net):
    sens = build_sensitivity(fig_net)
    part = auto_partition(fig_net, 4, 2)
    mu = np.random.default_rng(5).uniform(0, 3, sens.n)
    for res in (
        FlatEngine(sens).compute(mu, mu),
        MultilevelEngine(fig_net, part, 1).compute(mu, mu),
        MultilevelEngine(fig_net, part, 2).compute(mu, mu),
    ):
        assert np.all(res.g_p == 0.0) and np.all(res.g_q == 0.0)


def test_trilevel_identical_to_bilevel_without_subareas():
    rng = np.random.default_rng(77)
    net = random_network(rng, 50)
    part = auto_partition(net, 10, 0)  # no subareas anywhere
    assert all(not a.subareas for a in part.areas)
    mu_up, mu_lo = random_duals(rng, net.n_flat)
    rb = MultilevelEngine(net, part, 1).compute(mu_up, mu_lo)
    rt = MultilevelEngine(net, part, 2).compute(mu_up, mu_lo)
    np.testing.assert_array_equal(rb.g_p, rt.g_p)
    np.testing.assert_array_equal(rb.g_q, rt.g_q)
    assert rb.op_count == rt.op_count


def test_op_count_ordering_on_balanced_feeder():
    net, part = two_level_feeder(1024, 16, 4, seed=0)
    sens = build_sensitivity(net)
    rng = np.random.default_rng(0)
    mu_up, mu_lo = random_duals(rng, net.n_flat)
    rf = FlatEngine(sens).compute(mu_up, mu_lo)
    rb = MultilevelEngine(net, part, 1).compute(mu_up, mu_lo)
    rt = MultilevelEngine(net, part, 2).compute(mu_up, mu_lo)
    assert rt.op_count < rb.op_count < rf.op_count
    assert np.max(np.abs(rb.g_p - rf.g_p)) < equivalence_tol(rf.g_p)
    assert np.max(np.abs(rt.g_p - rf.g_p)) < equivalence_tol(rf.g_p)


def test_undivided_area_costs_the_same_in_both_multilevel_engines():
    # Control group: an area without subareas contributes identical declared
    # work to the bi-level and tri-level engines, so any cost difference
    # comes from the subdivided areas alone.
    from mlopf.coupling import _exact_block_ops, _level_op_count

    for size in (1, 7, 40):
        assert _level_op_count([], [], size) == _exact_block_ops(size)

    rng = np.random.default_rng(21)
    net = random_network(rng, 70, multi_phase=False)  # bus count == flat count
    plain = auto_partition(net, 15, 0)
    full = auto_partition(net, 15, 5)
    assert plain.n_areas >= 2
    # Same areas, subareas stripped from area 0 only: area 0 is the control.
    mixed = PartitionHierarchy(
        areas=tuple(
            p if p.index == 0 else f for p, f in zip(plain.areas, full.areas)
        ),
        unclustered=plain.unclustered,
    )
    assert validate_partition(net, mixed) == []
    mu_up, mu_lo = random_duals(rng, net.n_flat)
    ops_bi = MultilevelEngine(net, plain, 1).compute(mu_up, mu_lo).op_count
    ops_tri = MultilevelEngine(net, mixed, 2).compute(mu_up, mu_lo).op_count
    # The whole engine-level difference is the subdivided areas' difference;
    # the control area's term cancels exactly.
    expected_delta = 0
    for area in mixed.areas:
        if not area.subareas:
            continue
        sub_sizes = [len(s.members) for s in area.subareas]
        inner = _level_op_count(
            [_exact_block_ops(s) for s in sub_sizes], sub_sizes,
            len(area.remainder),
        )
        expected_delta += _exact_block_ops(len(area.members)) - inner
    assert ops_bi - ops_tri == expected_delta


def test_declared_costs_are_pinned():
    # Criterion 3 gates on these declared costs, so a change to the engine
    # must not move them.
    uv = generate(
        FeederSpec(n_buses=300, seed=0, load_scale=1.8),
        target_area_size=90, target_subarea_size=28,
    )
    assert [
        MultilevelEngine(uv.net, uv.partition, depth).op_count_per_apply
        for depth in (1, 2)
    ] == [49179, 41259]
    net, part = two_level_feeder(1024, 16, 4, seed=0)
    assert [
        MultilevelEngine(net, part, depth).op_count_per_apply for depth in (1, 2)
    ] == [76128, 33632]
    big = generate(FeederSpec(n_buses=4000, seed=0, load_scale=0.05))
    engine = MultilevelEngine(big.net, auto_partition(big.net, 400, 100), 2)
    assert engine.op_count_per_apply == 3360202


def test_op_count_positive_even_for_single_index():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
        }
    )
    part = PartitionHierarchy(areas=(), unclustered=frozenset({1}))
    res = MultilevelEngine(net, part, 1).compute(np.zeros(1), np.zeros(1))
    assert res.op_count > 0


def test_aggregate_messages_reproduce_inter_area_term(fig_net):
    # Rebuild the cross-area contribution from the exchanged aggregates and
    # root-to-root impedances alone and compare against a direct sum over
    # foreign per-bus duals. Equality is the aggregation identity itself.
    from mlopf.sensitivity import OMEGA_POW

    part = auto_partition(fig_net, 4, 2)
    assert part.n_areas >= 2
    sens = build_sensitivity(fig_net)
    rng = np.random.default_rng(11)
    mu_up, mu_lo = random_duals(rng, fig_net.n_flat)
    d = mu_up - mu_lo
    res = MultilevelEngine(fig_net, part, 1).compute(mu_up, mu_lo)
    msgs = {m.scope: m for m in res.messages}

    labels = fig_net.flat_labels()
    area_of = {}
    for area in part.areas:
        for bid in area.members:
            area_of[bid] = area.index
    for area in part.areas:
        member_idx = [
            i for i, (bid, _) in enumerate(labels) if area_of.get(bid) == area.index
        ]
        for i in member_idx:
            bid, phi = labels[i]
            pc = "abc".index(phi)
            from_messages = 0.0 + 0.0j
            direct = 0.0 + 0.0j
            for other in part.areas:
                if other.index == area.index:
                    continue
                zroots = np.conj(
                    fig_net.common_path_matrix(other.root, area.root)
                )
                sums = msgs[("area", other.index)].sums
                for psi in range(3):
                    w = OMEGA_POW[psi - pc + 2]
                    from_messages += zroots[psi, pc] * w * sums[psi]
                for j, (bj, phj) in enumerate(labels):
                    if area_of.get(bj) != other.index:
                        continue
                    pj = "abc".index(phj)
                    zz = np.conj(
                        fig_net.common_path_impedance(bj, bid, phj, phi)
                    )
                    direct += zz * OMEGA_POW[pj - pc + 2] * d[j]
            assert 2 * from_messages.real == pytest.approx(
                2 * direct.real, abs=1e-12
            )
            assert -2 * from_messages.imag == pytest.approx(
                -2 * direct.imag, abs=1e-12
            )
    assert res.messages  # engine actually exchanged aggregates


def test_dimension_mismatch_raises(fig_net):
    sens = build_sensitivity(fig_net)
    with pytest.raises(EngineError, match="shape"):
        FlatEngine(sens).compute(np.zeros(3), np.zeros(3))
    part = auto_partition(fig_net, 4)
    with pytest.raises(EngineError, match="shape"):
        MultilevelEngine(fig_net, part, 1).compute(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("depth", [0, 3])
def test_depth_other_than_one_or_two_rejected(fig_net, depth):
    with pytest.raises(EngineError, match="depth"):
        MultilevelEngine(fig_net, auto_partition(fig_net, 4, 2), depth)


def test_invalid_partition_rejected(fig_net):
    bad = PartitionHierarchy(
        areas=(Area(0, 21, frozenset({21, 22}), (), frozenset({21, 22})),),
        unclustered=frozenset(
            b.id for b in fig_net.buses if b.id not in (0, 21, 22)
        ),
    )
    with pytest.raises(EngineError, match="invalid partition"):
        MultilevelEngine(fig_net, bad, 1)


# -- privacy ---------------------------------------------------------------

def test_flat_engine_reports_global_access(fig_net):
    sens = build_sensitivity(fig_net)
    record = FlowRecord()
    part = auto_partition(fig_net, 4, 2)
    FlatEngine(sens, record=record).compute(np.zeros(sens.n), np.zeros(sens.n))
    report = privacy_audit(record, fig_net, part)
    assert report.global_access
    assert report.violations == []


def test_bilevel_audit_is_clean(fig_net):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord()
    engine = MultilevelEngine(fig_net, part, 1, record=record)
    mu_up, mu_lo = random_duals(np.random.default_rng(0), fig_net.n_flat)
    engine.compute(mu_up, mu_lo)
    report = privacy_audit(record, fig_net, part)
    assert report.violations == []
    assert not report.global_access
    assert record.applies == 1


def test_trilevel_audit_is_clean_including_subarea_scopes(fig_net):
    part = auto_partition(fig_net, 4, 2)
    assert any(a.subareas for a in part.areas)
    record = FlowRecord()
    engine = MultilevelEngine(fig_net, part, 2, record=record)
    mu_up, mu_lo = random_duals(np.random.default_rng(1), fig_net.n_flat)
    engine.compute(mu_up, mu_lo)
    report = privacy_audit(record, fig_net, part)
    assert report.violations == []
    assert not report.global_access
    sub_reads = [
        ev for ev in record.events
        if isinstance(ev, DualRead) and ev.scope[0] == "subarea"
    ]
    assert sub_reads  # subarea scopes really recorded their own reads


def test_audit_catches_foreign_dual_read(fig_net):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord(engine="bilevel")
    foreign = tuple(range(fig_net.n_flat))  # every index, including other areas
    record.events.append(DualRead(("area", part.areas[0].index), "members", foreign))
    report = privacy_audit(record, fig_net, part)
    assert any("foreign" in v for v in report.violations)


def test_audit_catches_foreign_topology_access(fig_net):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord(engine="bilevel")
    all_buses = [b.id for b in fig_net.buses if b.id != 0]
    record.events.append(
        ZAccess(("area", part.areas[0].index), "intra", tuple(all_buses), tuple(all_buses))
    )
    report = privacy_audit(record, fig_net, part)
    assert any("interior lines" in v for v in report.violations)


@pytest.mark.parametrize("depth", [1, 2])
def test_audit_catches_engine_reading_a_foreign_index(fig_net, monkeypatch, depth):
    # The record must come from the index arrays the engine gathers from:
    # widen one area's member set by a foreign flat index at construction
    # and the audit has to report it.
    part = auto_partition(fig_net, 4, 2)
    target = part.areas[0]
    foreign = int(coupling._flat_indices(fig_net, part.areas[1].members)[0])
    real = coupling._flat_indices

    def widened(net, bus_ids):
        idx = real(net, bus_ids)
        if frozenset(bus_ids) == target.members:
            idx = np.sort(np.append(idx, foreign))
        return idx

    record = FlowRecord()
    with monkeypatch.context() as patch:
        patch.setattr(coupling, "_flat_indices", widened)
        MultilevelEngine(fig_net, part, depth, record=record)
    report = privacy_audit(record, fig_net, part)
    assert any("foreign flat indices" in v for v in report.violations)


def documented_pools(net, part):
    """Each scope's read pools, spelled out from privacy_audit's docstring."""
    def idx(buses):
        return {net.flat_index(b, ph) for b in buses for ph in net.bus(b).phases}

    unclustered = set(part.unclustered)
    area_roots = {a.root for a in part.areas}
    pools = {
        ("unclustered",): {
            "members": idx(unclustered), "exterior": set(), "intra": unclustered,
            "root_root": area_roots, "exterior_root": area_roots | unclustered,
        }
    }
    for a in part.areas:
        pools[("area", a.index)] = {
            "members": idx(a.members), "exterior": idx(unclustered),
            "intra": set(a.members), "root_root": area_roots,
            "exterior_root": area_roots | unclustered | set(a.members),
        }
        sub_roots = {s.root for s in a.subareas}
        for s in a.subareas:
            pools[("subarea", a.index, s.index)] = {
                "members": idx(s.members), "exterior": idx(a.remainder),
                "intra": set(s.members), "root_root": sub_roots,
                "exterior_root": sub_roots | set(a.remainder),
            }
    return pools


DUAL_KINDS = ("members", "exterior")
Z_KINDS = ("intra", "root_root", "exterior_root")


def universe(net, kind):
    if kind in DUAL_KINDS:
        return list(range(net.n_flat))
    return [b.id for b in net.buses]


def leaked_items(report):
    """The one item each single-item event's violation names, in event order."""
    return [int(v.rsplit("[", 1)[1].rstrip("]")) for v in report.violations]


@pytest.mark.parametrize("areas", [(4, 2), (4, 0), None], ids=["subareas", "areas", "none"])
def test_audit_flags_exactly_the_items_outside_each_documented_pool(fig_net, areas):
    if areas is None:
        ids = frozenset(b.id for b in fig_net.buses if b.id != 0)
        part = PartitionHierarchy(areas=(), unclustered=ids)
    else:
        part = auto_partition(fig_net, *areas)
    for scope, pools in documented_pools(fig_net, part).items():
        for kind, pool in pools.items():
            record = FlowRecord()
            items = universe(fig_net, kind)
            for item in items:
                if kind in DUAL_KINDS:
                    record.dual_read(scope, kind, [item])
                else:
                    record.z_access(scope, kind, [item], [item])
            report = privacy_audit(record, fig_net, part)
            assert leaked_items(report) == [i for i in items if i not in pool], (scope, kind)
            assert all(v.startswith(f"scope {scope} ") for v in report.violations)


@pytest.mark.parametrize("kind", DUAL_KINDS + Z_KINDS)
def test_audit_reports_one_planted_foreign_item_per_event_kind(fig_net, kind):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord()
    MultilevelEngine(fig_net, part, 2, record=record)
    assert privacy_audit(record, fig_net, part).violations == []
    pools = documented_pools(fig_net, part)
    k, ev = next(
        (k, ev) for k, ev in enumerate(record.events)
        if getattr(ev, "basis", getattr(ev, "kind", None)) == kind
    )
    foreign = min(set(universe(fig_net, kind)) - pools[ev.scope][kind])
    if kind in DUAL_KINDS:
        planted = dataclasses.replace(ev, indices=ev.indices + (foreign,))
    else:
        planted = dataclasses.replace(ev, row_buses=ev.row_buses + (foreign,))
    record.events[k] = planted
    report = privacy_audit(record, fig_net, part)
    assert report.violations == [report.violations[0]]
    assert report.violations[0].startswith(f"scope {ev.scope} ")
    assert leaked_items(report) == [foreign]


@pytest.mark.parametrize(
    "event",
    [
        DualRead(("area", 99), "members", (0,)),
        DualRead(("area", 99), "exterior", (0,)),
        DualRead(("subarea", 0, 9), "exterior", (0,)),
        ZAccess(("area", 99), "root_root", (6,), (6,)),
        ZAccess(("subarea", 9, 0), "exterior_root", (1,), (1,)),
        ZAccess(("feeder",), "intra", (1,), (1,)),
    ],
    ids=[
        "members-area99", "exterior-area99", "exterior-subarea0.9",
        "root_root-area99", "exterior_root-subarea9.0", "intra-feeder",
    ],
)
def test_audit_rejects_events_from_unknown_scopes(fig_net, event):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord(events=[event])
    report = privacy_audit(record, fig_net, part)
    assert report.violations == [
        f"{'dual read' if isinstance(event, DualRead) else 'impedance access'} "
        f"from unknown scope {event.scope}"
    ]


def test_audit_rejects_unknown_read_kinds(fig_net):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord(events=[
        DualRead(("unclustered",), "intra", (0,)),
        ZAccess(("area", 0), "members", (6,), (6,)),
        ZAccess(("area", 0), "global", (6,), (6,)),
    ])
    report = privacy_audit(record, fig_net, part)
    assert report.violations == [
        "unknown dual read kind 'intra'",
        "unknown impedance access kind 'members'",
        "unknown impedance access kind 'global'",
    ]
    assert report.events_checked == 3


@pytest.mark.parametrize("depth", [1, 2])
def test_scope_blocks_match_scalar_common_path_entries(depth):
    # Each scope's block is gathered from one per-bus, per-phase-pair table;
    # every entry must equal the scalar common-path impedance, conjugated and
    # rotated by numpy's complex multiply, bit for bit.
    from mlopf.sensitivity import omega_power

    feeder = generate(FeederSpec(n_buses=60, seed=4, phase_drop=0.4),
                      target_area_size=15, target_subarea_size=5)
    net = feeder.net
    engine = MultilevelEngine(net, feeder.partition, depth)
    labels = [(bus, "abc".index(ph)) for bus, ph in net.flat_labels()]
    for scope in engine._scopes:
        slots = [(ch.root, ph) for ch in scope.children for ph in range(3)]
        slots += [labels[i] for i in scope.rem]
        z = np.array([[net.common_path_impedance(j, i, psi, phi) for j, psi in slots]
                      for i, phi in slots], dtype=np.complex128)
        w = np.array([[omega_power(psi - phi) for _, psi in slots]
                      for _, phi in slots], dtype=np.complex128)
        want = (np.conj(z) * w).reshape(len(slots), len(slots))
        for k in range(len(scope.children)):
            want[3 * k: 3 * k + 3, 3 * k: 3 * k + 3] = 0.0
        np.testing.assert_array_equal(scope.block, want)
