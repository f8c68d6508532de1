"""Coupling engines: equivalence, op counts, messages, privacy audit."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from mlopf import coupling
from mlopf.bench import two_level_feeder
from mlopf.coupling import (
    EngineError,
    FlatEngine,
    FlowRecord,
    MultilevelEngine,
    make_engine,
    privacy_audit,
)
from mlopf.feedergen import FeederSpec, generate
from mlopf.network import load_network, network_to_document
from mlopf.partition import (
    Area,
    PartitionHierarchy,
    Subarea,
    auto_partition,
    subtree_ids,
    unclustered,
    validate_partition,
)
from mlopf.sensitivity import build_sensitivity

from conftest import fig_feeder, random_duals, random_network, refuse_dense_build


def equivalence_tol(g_flat: np.ndarray) -> float:
    return 1e-9 * (1.0 + float(np.max(np.abs(g_flat), initial=0.0)))


@functools.cache
def gen4k():
    """FeederSpec(4000, seed=0, load_scale=0.05) with auto_partition(net, 400, 100)."""
    net = generate(FeederSpec(n_buses=4000, seed=0, load_scale=0.05)).net
    return net, auto_partition(net, 400, 100)


def uv300():
    feeder = generate(FeederSpec(n_buses=300, seed=0, load_scale=1.8),
                      target_area_size=90, target_subarea_size=28)
    return feeder.net, feeder.partition


@pytest.fixture
def all_sweeps(monkeypatch):
    """Every scope, whatever its remainder's size, runs the tree sweep."""
    monkeypatch.setattr(coupling, "SWEEP_MIN_REMAINDER", 0)


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
    # With no areas, the multilevel engine at either depth is the feeder
    # scope alone, the flat engine's tree: dense below SWEEP_MIN_REMAINDER
    # indices (fig_net, uv300's 349) and swept from there (the 700-bus
    # feeder's 751).
    swept = generate(FeederSpec(700, seed=1, phase_drop=0.4)).net
    part = PartitionHierarchy(areas=())
    for net, lone_sweep in [(fig_net, False), (uv300()[0], False), (swept, True)]:
        sens = build_sensitivity(net)
        mu_up, mu_lo = random_duals(np.random.default_rng(1), sens.n)
        ref = FlatEngine(sens).compute(mu_up, mu_lo)
        scale = 1.0 + np.max(np.abs(ref.g_p))
        for depth in (1, 2):
            engine = MultilevelEngine(net, part, depth)
            assert [s.forest is not None for s in engine._scopes] == [lone_sweep]
            res = engine.compute(mu_up, mu_lo)
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
    part = PartitionHierarchy(areas=(Area(0, 1, ()), Area(1, 2, ())))
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
        size = len(subtree_ids(net, area.root))
        sub_sizes = [len(subtree_ids(net, s.root)) for s in area.subareas]
        inner = _level_op_count(
            [_exact_block_ops(s) for s in sub_sizes], sub_sizes,
            size - sum(sub_sizes),
        )
        expected_delta += _exact_block_ops(size) - inner
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
    # gen4k's feeder scope (1,716 remainder indices) is one tree sweep: its
    # five dense areas (339,577), three per area member (2,333), 21 per
    # column of its 1,667-bus forest and nine per area.
    net, part = gen4k()
    assert MultilevelEngine(net, part, 2).op_count_per_apply == (
        339577 + 3 * 2333 + 21 * 1667 + 9 * 5
    ) == 381628


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
    part = PartitionHierarchy(areas=())
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
        for bid in subtree_ids(fig_net, area.root):
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
    # Nested area roots: 27 lies in the subtree of 21.
    bad = PartitionHierarchy(areas=(Area(0, 21, ()), Area(1, 27, ())))
    with pytest.raises(EngineError, match="invalid partition"):
        MultilevelEngine(fig_net, bad, 1)


@pytest.mark.parametrize("kind, given, message", [
    ("flat", {}, "flat engine needs sensitivity matrices"),
    ("bilevel", {"part": None}, "bilevel engine needs a network and partition"),
])
def test_make_engine_without_its_inputs_is_rejected(fig_net, kind, given, message):
    with pytest.raises(EngineError, match=message):
        make_engine(kind, net=fig_net, **given)


# -- privacy ---------------------------------------------------------------

def test_flat_engine_reports_global_access(fig_net):
    sens = build_sensitivity(fig_net)
    record = FlowRecord()
    part = auto_partition(fig_net, 4, 2)
    FlatEngine(sens, record=record).compute(np.zeros(sens.n), np.zeros(sens.n))
    report = privacy_audit(record, fig_net, part)
    assert report.global_access
    assert report.violations == []


def test_audit_of_an_invalid_partition_reports_its_problems():
    part = PartitionHierarchy((Area(0, 99, ()),))
    report = privacy_audit(FlowRecord(), fig_feeder(), part)
    assert not report.clean
    assert report.violations == validate_partition(fig_feeder(), part)
    assert any("bus id 99" in v for v in report.violations)


def dual_read_event(scope, basis, indices) -> dict:
    """The event FlowRecord.dual_read records."""
    record = FlowRecord()
    record.dual_read(scope, basis, indices)
    return record.events[0]


def z_access_event(scope, kind, row_buses, col_buses) -> dict:
    """The event FlowRecord.z_access records."""
    record = FlowRecord()
    record.z_access(scope, kind, row_buses, col_buses)
    return record.events[0]


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
        if ev["event"] == "dual_read" and ev["scope"][0] == "subarea"
    ]
    assert sub_reads  # subarea scopes really recorded their own reads


def test_audit_catches_foreign_dual_read(fig_net):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord(engine="bilevel")
    foreign = tuple(range(fig_net.n_flat))  # every index, including other areas
    record.events.append(dual_read_event(("area", part.areas[0].index), "members", foreign))
    report = privacy_audit(record, fig_net, part)
    assert any("foreign" in v for v in report.violations)


def test_audit_catches_foreign_topology_access(fig_net):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord(engine="bilevel")
    all_buses = [b.id for b in fig_net.buses if b.id != 0]
    record.events.append(
        z_access_event(("area", part.areas[0].index), "intra", all_buses, all_buses)
    )
    report = privacy_audit(record, fig_net, part)
    assert any("interior lines" in v for v in report.violations)


def test_audit_reports_an_event_of_unknown_type(fig_net):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord(engine="bilevel")
    record.events.append(object())
    report = privacy_audit(record, fig_net, part)
    assert len(report.violations) == 1
    assert report.violations[0].startswith("unknown event <object object")


@pytest.mark.parametrize("depth", [1, 2])
def test_audit_catches_engine_reading_a_foreign_index(fig_net, monkeypatch, depth):
    # The record must come from the index arrays the engine gathers from:
    # widen one area's DFS slice by a foreign bus at construction and the
    # audit has to report it.
    part = auto_partition(fig_net, 4, 2)
    target = fig_net.bus_pos(part.areas[0].root)
    foreign = fig_net.bus_pos(part.areas[1].root)
    real = coupling._subtree_slice

    def widened(net, k):
        positions = real(net, k)
        return np.append(positions, foreign) if k == target else positions

    record = FlowRecord()
    with monkeypatch.context() as patch:
        patch.setattr(coupling, "_subtree_slice", widened)
        MultilevelEngine(fig_net, part, depth, record=record)
    report = privacy_audit(record, fig_net, part)
    assert any("foreign flat indices" in v for v in report.violations)


def documented_pools(net, part):
    """Each scope's read pools, spelled out from privacy_audit's docstring."""
    def idx(buses):
        return {net.flat_index(b, ph) for b in buses for ph in net.bus(b).phases}

    public = set(unclustered(net, part))
    area_roots = {a.root for a in part.areas}
    pools = {
        ("unclustered",): {
            "members": idx(public), "exterior": set(), "intra": public,
            "root_root": area_roots, "exterior_root": area_roots | public,
        }
    }
    for a in part.areas:
        members = set(subtree_ids(net, a.root))
        remainder = members.difference(*(subtree_ids(net, s.root) for s in a.subareas))
        pools[("area", a.index)] = {
            "members": idx(members), "exterior": idx(public),
            "intra": members, "root_root": area_roots,
            "exterior_root": area_roots | public | members,
        }
        sub_roots = {s.root for s in a.subareas}
        for s in a.subareas:
            sub_members = set(subtree_ids(net, s.root))
            pools[("subarea", a.index, s.index)] = {
                "members": idx(sub_members), "exterior": idx(remainder),
                "intra": sub_members, "root_root": sub_roots,
                "exterior_root": sub_roots | remainder,
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
        part = PartitionHierarchy(areas=())
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
        if ev.get("basis", ev.get("kind")) == kind
    )
    scope = tuple(ev["scope"])
    foreign = min(set(universe(fig_net, kind)) - pools[scope][kind])
    if kind in DUAL_KINDS:
        planted = {**ev, "flat_indices": ev["flat_indices"] + [foreign]}
    else:
        planted = {**ev, "row_buses": ev["row_buses"] + [foreign]}
    record.events[k] = planted
    report = privacy_audit(record, fig_net, part)
    assert report.violations == [report.violations[0]]
    assert report.violations[0].startswith(f"scope {scope} ")
    assert leaked_items(report) == [foreign]


@pytest.mark.parametrize(
    "event",
    [
        dual_read_event(("area", 99), "members", (0,)),
        dual_read_event(("area", 99), "exterior", (0,)),
        dual_read_event(("subarea", 0, 9), "exterior", (0,)),
        z_access_event(("area", 99), "root_root", (6,), (6,)),
        z_access_event(("subarea", 9, 0), "exterior_root", (1,), (1,)),
        z_access_event(("feeder",), "intra", (1,), (1,)),
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
        f"{'dual read' if event['event'] == 'dual_read' else 'impedance access'} "
        f"from unknown scope {tuple(event['scope'])}"
    ]


def test_audit_rejects_unknown_read_kinds(fig_net):
    part = auto_partition(fig_net, 4, 2)
    record = FlowRecord(events=[
        dual_read_event(("unclustered",), "intra", (0,)),
        z_access_event(("area", 0), "members", (6,), (6,)),
        z_access_event(("area", 0), "global", (6,), (6,)),
    ])
    report = privacy_audit(record, fig_net, part)
    assert report.violations == [
        "unknown dual read kind 'intra'",
        "unknown impedance access kind 'members'",
        "unknown impedance access kind 'global'",
    ]
    assert report.events_checked == 3


def kernel_slots(net, scope):
    """(child, anchor id, phase) of each slot row: every phase of each child root
    whose anchor is not the substation, child by child."""
    return [
        (k, net.bus(ch.root).parent, ph)
        for k, ch in enumerate(scope.children) if net.bus(ch.root).parent != 0
        for ph in net.bus(ch.root).phases
    ]


def own_blocks_zeroed(net, scope, want):
    """want, an (2, rows, rows) block, with each child's own slot block set to 0."""
    owner = [k for k, _, _ in kernel_slots(net, scope)]
    s = len(owner)
    want[:, :s, :s][:, np.equal.outer(owner, owner)] = 0.0
    return want


@pytest.mark.parametrize("depth", [1, 2])
def test_scope_blocks_match_scalar_common_path_entries(depth):
    # Each scope's block holds R over X at its kernel's rows: row
    # (i, phi), column (j, psi) reads dv(i, phi)/dp(j, psi), then
    # dv(i, phi)/dq(j, psi), bit for bit the scalar entry, and a child's
    # own slot block is 0. The rows are one slot per phase of each child
    # root not anchored at the substation, at the anchor, then the
    # remainder. The 60-bus feeder's child roots hold all three phases;
    # uv300's lack some, which therefore have no slot.
    from mlopf.sensitivity import dv_dp_entry, dv_dq_entry

    feeder = generate(FeederSpec(n_buses=60, seed=4, phase_drop=0.4),
                      target_area_size=15, target_subarea_size=5)
    absent = 0
    for net, partition in [(feeder.net, feeder.partition), uv300()]:
        labels = net.flat_labels()
        for scope in MultilevelEngine(net, partition, depth)._scopes:
            kernel = [labels[i] for i in scope.rows]
            slots = kernel_slots(net, scope)
            assert kernel == [(bus, ph) for _, bus, ph in slots] + [labels[i] for i in scope.rem]
            want = np.array([[[(dv_dp_entry, dv_dq_entry)[part](net, i, phi, j, psi)
                               for j, psi in kernel] for i, phi in kernel]
                             for part in (0, 1)])
            own_blocks_zeroed(net, scope, want)
            assert scope.block.tobytes() == want.tobytes()
            absent += sum(3 - len(net.bus(ch.root).phases) for ch in scope.children)
    assert absent > 0


def test_dense_scope_blocks_are_the_dense_submatrices():
    # Every dense scope's block, all four quadrants, is bitwise the R over
    # X submatrix at the kernel's rows with each child's own slot block
    # zero: the scopes and the dense build share sensitivity_block. The
    # hand partitions add a substation anchor, an empty remainder, shared
    # anchors and a subarea equal to its area.
    uv300_net, uv300_part = uv300()
    cases = [(uv300_net, uv300_part)]
    cases += [(net, part) for net, part, _, _ in criterion_1_family(20)]
    cases += [(net, part) for net, part, _, _ in hand_partitions()]
    seen = set()
    for net, part in cases:
        sens = build_sensitivity(net)
        for depth in (1, 2):
            for scope in MultilevelEngine(net, part, depth)._scopes:
                assert scope.forest is None
                rows = scope.rows
                want = np.stack([sens.r[np.ix_(rows, rows)], sens.x[np.ix_(rows, rows)]])
                own_blocks_zeroed(net, scope, want)
                assert scope.block.tobytes() == want.tobytes()
                seen |= anchor_cases(net, scope, np.zeros(net.n_flat))
                if any(ch.root == scope.root for ch in scope.children):
                    seen.add("subarea equal to its area")
    assert seen == {"shared anchor", "substation anchor", "empty remainder",
                    "subarea equal to its area"}


# -- remainders run as tree sweeps ------------------------------------------

def criterion_1_family(trials):
    """The first feeders, partitions and duals of acceptance criterion 1."""
    rng = np.random.default_rng(2024)
    for _ in range(trials):
        n_buses = int(rng.integers(15, 121))
        feeder = generate(
            FeederSpec(
                n_buses=n_buses,
                seed=int(rng.integers(0, 10_000)),
                phase_drop=float(rng.uniform(0.0, 0.4)),
            ),
            target_area_size=max(3, n_buses // int(rng.integers(3, 7))),
            target_subarea_size=max(2, n_buses // 12),
        )
        yield feeder.net, feeder.partition, *random_duals(rng, feeder.net.n_flat)


def two_head_feeder():
    """fig_feeder with a second head: buses 30-33 hang off the substation."""
    doc = network_to_document(fig_feeder())
    z = {"aa": [0.006, 0.012], "bb": [0.005, 0.011], "ab": [0.002, 0.004]}
    doc["buses"] += [
        {"id": 30, "phases": ["a", "b", "c"], "parent": 0},
        {"id": 31, "phases": ["a", "b", "c"], "parent": 30},
        {"id": 32, "phases": ["a", "b"], "parent": 30},
        {"id": 33, "phases": ["b"], "parent": 32},
    ]
    doc["lines"] += [
        {"from": 0, "to": 30, "z": {**z, "cc": [0.007, 0.013], "ca": [0.001, 0.003]}},
        {"from": 30, "to": 31, "z": {**z, "cc": [0.004, 0.009]}},
        {"from": 30, "to": 32, "z": z},
        {"from": 32, "to": 33, "z": {"bb": [0.003, 0.008]}},
    ]
    return load_network(doc)


def hand_partitions():
    """Hand partitions whose scopes' children meet at every kind of anchor.

    A child's anchor is its root's parent. Between them the partitions hold
    an empty area remainder, single-bus remainders, sibling children that
    share an anchor, anchors that are remainder buses, and the substation
    as an anchor.
    """
    fig, heads = fig_feeder(), two_head_feeder()
    for net, part in (
        # A subarea rooted at its area's root leaves the area no remainder;
        # its anchor, bus 12, lies outside the area.
        (fig, PartitionHierarchy((Area(0, 21, (Subarea(0, 21),)), Area(1, 17, ())))),
        # Area 21 keeps only its root, the anchor of both its subareas;
        # areas 8 and 20 are single buses.
        (fig, PartitionHierarchy((
            Area(0, 21, (Subarea(0, 22), Subarea(1, 27))),
            Area(1, 8, ()), Area(2, 20, ()),
        ))),
        # Areas 10 and 12 share the feeder remainder's bus 4 as anchor, and
        # subareas 22 and 27 share bus 21 of area 12's remainder.
        (fig, PartitionHierarchy((
            Area(0, 10, ()), Area(1, 12, (Subarea(0, 22), Subarea(1, 27))),
        ))),
        # Area 30 hangs off the substation, so the substation is its anchor.
        (heads, PartitionHierarchy((Area(0, 30, (Subarea(0, 32),)), Area(1, 17, ())))),
        # No area hangs off the substation: the feeder's forest has two tops,
        # buses 1 and 30, whose pairs meet at zero impedance.
        (heads, PartitionHierarchy((Area(0, 32, ()), Area(1, 21, (Subarea(0, 27),))))),
        # One area holds every bus below the substation and its subarea all
        # of the area, so neither the feeder nor the area has a kernel row.
        (fig, PartitionHierarchy((Area(0, 1, (Subarea(0, 1),)),))),
    ):
        assert validate_partition(net, part) == []
        yield net, part, *random_duals(np.random.default_rng(9), net.n_flat)


def anchor_cases(net, scope, d):
    """The edge cases a scope's anchors present."""
    anchors = [int(net.parent_pos[net.bus_pos(ch.root)]) for ch in scope.children]
    rem_bus = net.flat_bus_pos[scope.rem]
    cases = set()
    if len(set(anchors)) < len(anchors):
        cases.add("shared anchor")
    if any(np.any(d[scope.rem[rem_bus == a]] != 0) for a in anchors):
        cases.add("remainder anchor with a nonzero dual")
    if net.bus_pos(0) in anchors:
        cases.add("substation anchor")
    if anchors and not len(scope.rem):
        cases.add("empty remainder")
    return cases


def test_sweep_remainders_match_flat_at_both_depths(all_sweeps):
    cases = [*criterion_1_family(100), *hand_partitions()]
    remainders, anchors = set(), set()
    for net, part, mu_up, mu_lo in cases:
        ref = FlatEngine(build_sensitivity(net)).compute(mu_up, mu_lo)
        for depth in (1, 2):
            engine = MultilevelEngine(net, part, depth)
            assert all(s.forest is not None for s in engine._scopes)
            remainders.update(len(s.rem) for s in engine._scopes)
            for s in engine._scopes:
                anchors |= anchor_cases(net, s, mu_up - mu_lo)
            res = engine.compute(mu_up, mu_lo)
            for got, want in ((res.g_p, ref.g_p), (res.g_q, ref.g_q)):
                assert np.max(np.abs(got - want)) < 1e-12 * (1.0 + np.max(np.abs(want)))
    assert {0, 1} <= remainders  # empty and single-bus, single-phase remainders
    assert anchors == {
        "shared anchor", "remainder anchor with a nonzero dual",
        "substation anchor", "empty remainder",
    }


def test_dense_kernels_match_flat_at_both_depths():
    tops = set()
    for net, part, mu_up, mu_lo in hand_partitions():
        ref = FlatEngine(build_sensitivity(net)).compute(mu_up, mu_lo)
        for depth in (1, 2):
            engine = MultilevelEngine(net, part, depth)
            assert all(s.forest is None for s in engine._scopes)
            top = engine._tree
            anchors = [net.parent_pos[net.bus_pos(ch.root)] for ch in top.children]
            _, forest = net.subforest(top.rows)
            buses = np.union1d(anchors, net.flat_bus_pos[forest.idx])
            if net.bus_pos(0) not in buses:
                tops.add(int(np.sum(~np.isin(net.parent_pos[buses], buses))))
            res = engine.compute(mu_up, mu_lo)
            for got, want in ((res.g_p, ref.g_p), (res.g_q, ref.g_q)):
                assert np.max(np.abs(got - want)) < 1e-12 * (1.0 + np.max(np.abs(want)))
    assert max(tops) >= 2


def test_sweep_remainders_send_the_dense_kernels_messages(monkeypatch):
    cases = [*criterion_1_family(10), *hand_partitions()]
    for net, part, mu_up, mu_lo in cases:
        for depth in (1, 2):
            dense = MultilevelEngine(net, part, depth).compute(mu_up, mu_lo)
            with monkeypatch.context() as patch:
                patch.setattr(coupling, "SWEEP_MIN_REMAINDER", 0)
                swept = MultilevelEngine(net, part, depth).compute(mu_up, mu_lo)
            assert swept.messages == dense.messages
            for a, b in zip(swept.messages, dense.messages):
                assert np.array(a.sums).tobytes() == np.array(b.sums).tobytes()


def test_messages_are_built_only_when_read(monkeypatch):
    net, part = uv300()
    rng = np.random.default_rng(21)
    first, second = random_duals(rng, net.n_flat), random_duals(rng, net.n_flat)
    built = []
    original = coupling.AggregateMessage

    def counted(*args, **kwargs):
        built.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(coupling, "AggregateMessage", counted)
    engine = MultilevelEngine(net, part, 2)
    res = engine.compute(*first)
    engine.compute(*second)
    assert built == []
    # Read after a later compute, the messages still carry this call's sums.
    messages = res.messages
    assert len(built) == len(messages) > 0
    assert res.messages is messages and len(built) == len(messages)
    assert messages == MultilevelEngine(net, part, 2).compute(*first).messages


def dense_agreement_cases(family):
    """Feeders, partitions and duals on which the kernels meet R and X."""
    if family == "criterion_1":
        yield from criterion_1_family(100)
        return
    if family == "phase_drop":
        feeder = generate(FeederSpec(n_buses=400, seed=1, phase_drop=0.4),
                          target_area_size=60, target_subarea_size=15)
        net, part = feeder.net, feeder.partition
    else:
        net, part = gen4k()
    yield net, part, *random_duals(np.random.default_rng(23), net.n_flat)


@pytest.mark.parametrize("family", ["criterion_1", "phase_drop", "gen4k"])
def test_real_kernels_match_the_dense_products(family):
    # The voltage map and both multilevel engines run in real arithmetic;
    # each must stay within 1e-13 (relative) of the dense products.
    from mlopf.sensitivity import voltage_linear

    for net, part, mu_up, mu_lo in dense_agreement_cases(family):
        sens = build_sensitivity(net)
        p, q = np.random.default_rng(net.n_flat).normal(size=(2, net.n_flat))
        want = sens.r @ p + sens.x @ q + sens.v_tilde
        gap = np.max(np.abs(voltage_linear(sens, p, q) - want))
        assert gap <= 1e-13 * (1.0 + np.max(np.abs(want)))
        ref = FlatEngine(sens).compute(mu_up, mu_lo)
        for depth in (1, 2):
            res = MultilevelEngine(net, part, depth).compute(mu_up, mu_lo)
            for got, want in ((res.g_p, ref.g_p), (res.g_q, ref.g_q)):
                assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


def phase_drop_400():
    feeder = generate(FeederSpec(400, seed=1, phase_drop=0.4))
    return feeder.net, feeder.partition


def fig_partitioned():
    net = fig_feeder()
    return net, auto_partition(net, 4, 2)


@pytest.mark.parametrize("swept", [False, True], ids=["as-built", "all-swept"])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("feeder", ["uv300", "drop400", "fig"])
def test_each_scope_product_reads_only_the_duals_its_audit_rules_allow(
    monkeypatch, feeder, depth, swept
):
    # Every per-bus dual outside a scope's "members" and "exterior" pools is
    # NaN, the child aggregates stay clean: the product must not change. A
    # gather entry pointed at a foreign index must then show in the product.
    net, part = {"uv300": uv300, "drop400": phase_drop_400, "fig": fig_partitioned}[feeder]()
    if swept:
        monkeypatch.setattr(coupling, "SWEEP_MIN_REMAINDER", 0)
    engine = MultilevelEngine(net, part, depth)
    rules = coupling._audit_rules(net, part)
    d = np.random.default_rng(11).uniform(-1.0, 1.0, net.n_flat)
    agg = np.bincount(engine._slots, weights=d[engine._members], minlength=3 * len(engine._scopes))
    clean = np.concatenate([d, agg])
    for scope in engine._scopes:
        readable = sorted(rules[scope.key]["members"] | rules[scope.key]["exterior"])
        poisoned = np.full(net.n_flat, np.nan)
        poisoned[readable] = d[readable]
        x = np.concatenate([poisoned, agg])
        assert np.array_equal(scope.product(x), scope.product(clean)), scope.key
        foreign = sorted(set(range(net.n_flat)) - set(readable))
        if foreign and len(scope.gather):
            scope.gather = scope.gather.copy()
            scope.gather[-1] = foreign[0]
            assert np.isnan(scope.product(x)).any(), scope.key


@pytest.mark.parametrize("feeder", ["uv300", "gen4k", "two_level"])
def test_sweep_remainders_record_the_dense_kernels_flows(monkeypatch, feeder):
    net, part = {
        "uv300": uv300,
        "gen4k": gen4k,
        "two_level": lambda: two_level_feeder(1024, 16, 4, seed=0),
    }[feeder]()
    for depth in (1, 2):
        records = []
        for threshold in (coupling.SWEEP_MIN_REMAINDER, 0):
            monkeypatch.setattr(coupling, "SWEEP_MIN_REMAINDER", threshold)
            records.append(FlowRecord())
            MultilevelEngine(net, part, depth, record=records[-1])
        assert records[0].events == records[1].events
        assert privacy_audit(records[1], net, part).clean


def test_sweep_op_formula_is_pinned(all_sweeps):
    # 21 declared ops per bus the swept forest spans: per phase, the
    # subtree and ancestor sums and the two rotations; per bus, the nine
    # multiply-accumulates through the line. The forest itself has one
    # column per distinct flat index of the kernel's rows.
    assert coupling._sweep_ops(1) == 21
    net = fig_feeder()
    # Without areas the feeder is one scope, its forest every bus but 0.
    lone = MultilevelEngine(net, PartitionHierarchy(areas=()), 1)
    assert lone.op_count_per_apply == 21 * (net.n_buses - 1)
    part = PartitionHierarchy((Area(0, 21, (Subarea(0, 22), Subarea(1, 27))), Area(1, 17, ())))
    engine = MultilevelEngine(net, part, 2)
    for s in engine._scopes:
        sizes = [len(ch.idx) for ch in s.children]
        anchors = {int(net.parent_pos[net.bus_pos(ch.root)]) for ch in s.children}
        buses = len(anchors | set(net.flat_bus_pos[s.rem].tolist()))
        assert s.forest.n == len(np.unique(s.rows))
        assert s.ops == coupling._swept_op_count([ch.ops for ch in s.children], sizes, buses)
    # The feeder's remainder, buses 1-12 (26 indices on 12 buses), holds
    # both areas' anchors, 12 and 3. Beside areas of 14 and 9 indices it
    # costs three ops per area member to aggregate and broadcast, the
    # sweep, and nine per area for the area's own 3x3 term.
    top = engine._tree
    assert (len(top.rem), top.forest.n, buses, sizes) == (26, 26, 12, [14, 9])
    inner = sum(ch.ops for ch in top.children)
    assert top.ops == inner + 3 * (14 + 9) + 21 * 12 + 9 * 2


def test_acceptance_feeders_keep_their_dense_blocks():
    crit2 = generate(FeederSpec(n_buses=300, seed=3, phase_drop=0.0, load_scale=1.8),
                     target_area_size=75, target_subarea_size=25)
    for net, part in (uv300(), (crit2.net, crit2.partition)):
        for depth in (1, 2):
            for s in MultilevelEngine(net, part, depth)._scopes:
                assert s.forest is None and len(s.rem) < coupling.SWEEP_MIN_REMAINDER
    net, part = gen4k()
    swept = [s.key for s in MultilevelEngine(net, part, 2)._scopes if s.forest is not None]
    assert swept == [("unclustered",)]


def test_flat_engine_builds_the_dense_matrices_it_lacks(monkeypatch):
    # The engine's constructor builds R and X, so its products match an
    # engine handed them built and run with the dense builder refusing.
    net, _ = uv300()
    mu_up, mu_lo = random_duals(np.random.default_rng(12), net.n_flat)
    sens = build_sensitivity(net)
    assert sens.r.shape == (net.n_flat, net.n_flat)
    built = FlatEngine(sens).compute(mu_up, mu_lo)
    engine = FlatEngine(build_sensitivity(net))
    refuse_dense_build(monkeypatch)
    light = engine.compute(mu_up, mu_lo)
    assert light.g_p.tobytes() == built.g_p.tobytes()
    assert light.g_q.tobytes() == built.g_q.tobytes()
    assert light.op_count == built.op_count
    with pytest.raises(AssertionError, match="dense sensitivities"):
        FlatEngine(build_sensitivity(net))


def test_flat_engine_holds_the_dense_matrices_without_a_copy():
    # The flat engine's one scope multiplies the R over X array that
    # sens.r and sens.x view, so once they are built the engine and an
    # apply allocate only O(N): here 0.65% of their 25 MB.
    net = generate(FeederSpec(1200, seed=1, phase_drop=0.4)).net
    sens = build_sensitivity(net)
    dense = sens.r.nbytes + sens.x.nbytes
    mu_up, mu_lo = random_duals(np.random.default_rng(3), sens.n)
    tracemalloc.start()
    try:
        engine = FlatEngine(sens)
        engine.compute(mu_up, mu_lo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * dense
    (scope,) = engine._scopes
    assert np.shares_memory(scope.block, sens.r) and np.shares_memory(scope.block, sens.x)


def test_dense_scope_blocks_own_their_memory():
    # Each dense block is its own (2, m, m) array, no view of a larger one
    # that would keep the substation's pair rows alive beside it.
    net, part = gen4k()
    dense = [scope for scope in MultilevelEngine(net, part, 2)._scopes if scope.forest is None]
    assert dense
    for scope in dense:
        assert scope.block.base is None
        assert scope.block.shape == (2, len(scope.rows), len(scope.rows))
    sens = build_sensitivity(net)
    assert sens.r.base is sens.x.base is not None
    assert sens.r.base.nbytes == sens.r.nbytes + sens.x.nbytes


def test_swept_scope_never_builds_its_dense_block():
    # 1,716 unclustered indices: their dense block alone would be 47 MB.
    net, part = gen4k()
    tracemalloc.start()
    try:
        engine = MultilevelEngine(net, part, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The engine build peaked at 8.7 MB while the swept scope kept dense
    # slot rows beside its sweep.
    assert peak <= 8.7e6
    swept = engine._tree
    s = len(swept.rows) - len(swept.rem)
    for name, value in vars(swept).items():
        if isinstance(value, np.ndarray) and value.ndim != 1:
            assert (name, value.shape) == ("own", (2, s, s))
