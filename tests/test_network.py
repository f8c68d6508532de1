"""Network model: loading, validation, paths, common-path impedance."""

from __future__ import annotations

import json

import numpy as np
import pytest

from mlopf import documents, network, opf
from mlopf.feedergen import FeederSpec, feeder_documents, generate
from mlopf.network import (
    Bus,
    Line,
    Network,
    NetworkError,
    load_network,
    network_to_document,
)
from mlopf.opf import Device, ProblemError, load_problem, make_problem
from mlopf.partition import load_partition
from mlopf.sensitivity import build_sensitivity, sensitivity_block

from conftest import (
    broom_feeder,
    brute_force_common_path_impedance,
    brute_force_path,
    chain_doc,
    fig_feeder,
    long_chain,
    random_network,
)


def test_smallest_valid_network_has_single_index():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
        }
    )
    assert net.n_flat == 1
    assert net.flat_index(1, "a") == 0


@pytest.mark.parametrize("phase", [True, 3, "d"])
def test_flat_index_rejects_a_non_phase(chain_net, phase):
    # True == 1 and would otherwise read as phase b.
    with pytest.raises(NetworkError, match="unknown phase"):
        chain_net.flat_index(1, phase)


def test_cycle_is_rejected_as_not_a_tree():
    doc = {
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": ["a"], "parent": 2},
            {"id": 2, "phases": ["a"], "parent": 1},
        ],
        "lines": [
            {"from": 2, "to": 1, "z": {"aa": [0.01, 0.0]}},
            {"from": 1, "to": 2, "z": {"aa": [0.01, 0.0]}},
        ],
    }
    with pytest.raises(NetworkError, match="not a tree"):
        load_network(doc)


def test_phase_missing_on_parent_is_rejected():
    doc = {
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": ["a"], "parent": 0},
            {"id": 2, "phases": ["b"], "parent": 1},
        ],
        "lines": [
            {"from": 0, "to": 1, "z": {"aa": [0.01, 0.0]}},
            {"from": 1, "to": 2, "z": {"bb": [0.01, 0.0]}},
        ],
    }
    with pytest.raises(NetworkError, match="phase b not present on parent"):
        load_network(doc)
    # Two buses drop a phase of bus 1, listed out of id order: the lower id is named.
    doc = {
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": ["a"], "parent": 0},
            {"id": 5, "phases": ["b"], "parent": 1},
            {"id": 3, "phases": ["c"], "parent": 1},
        ],
        "lines": [
            {"from": 0, "to": 1, "z": {"aa": [0.01, 0.0]}},
            {"from": 1, "to": 5, "z": {"bb": [0.01, 0.0]}},
            {"from": 1, "to": 3, "z": {"cc": [0.01, 0.0]}},
        ],
    }
    with pytest.raises(NetworkError, match="bus 3: phase c not present on parent bus 1"):
        load_network(doc)


def test_duplicate_bus_ids_rejected():
    doc = chain_doc()
    doc["buses"].append({"id": 1, "phases": ["a"], "parent": 0})
    with pytest.raises(NetworkError, match="duplicate"):
        load_network(doc)


def one_line_doc(phases):
    return {
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": phases, "parent": 0},
        ],
        "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
    }


def test_duplicate_phases_on_a_bus_rejected():
    # A repeated phase would give the bus two flat indices with one label,
    # and index_of would keep only the second of them.
    with pytest.raises(NetworkError, match="distinct"):
        load_network(one_line_doc(["a", "a"]))
    z = np.zeros((3, 3), dtype=np.complex128)
    z[0, 0] = 0.01 + 0.02j
    with pytest.raises(NetworkError, match="distinct"):
        Network([Bus(0, ("a", "b", "c"), None), Bus(1, ("a", "a"), 0)], [Line(0, 1, z)])
    assert load_network(one_line_doc(["a"])).n_flat == 1


def test_line_count_mismatch_rejected():
    doc = chain_doc()
    doc["lines"] = doc["lines"][:1]
    with pytest.raises(NetworkError, match="not a tree"):
        load_network(doc)


def test_path_to_root_on_chain(chain_net):
    assert chain_net.path_to_root(2) == [(0, 1), (1, 2)]
    assert chain_net.path_to_root(1) == [(0, 1)]


def test_path_to_root_of_substation_is_empty(chain_net):
    assert chain_net.path_to_root(0) == []


def test_path_to_root_unknown_bus(chain_net):
    with pytest.raises(NetworkError, match="unknown bus"):
        chain_net.path_to_root(99)


def test_cousin_branches_share_the_trunk():
    net = fig_feeder()
    shared = set(brute_force_path(net, 10)) & set(brute_force_path(net, 27))
    assert shared == {(0, 1), (1, 2), (2, 4)}
    # The substation link carries zero impedance, so the shared impedance is
    # exactly the sum over lines (1,2) and (2,4).
    expected = net.line_to(2).z[0, 0] + net.line_to(4).z[0, 0]
    assert net.common_path_impedance(10, 27, "a", "a") == pytest.approx(expected)


def test_common_path_impedance_chain_values(chain_net):
    assert chain_net.common_path_impedance(2, 2, "a", "a") == pytest.approx(
        0.015 + 0.03j
    )
    assert chain_net.common_path_impedance(1, 2, "a", "a") == pytest.approx(
        0.01 + 0.02j
    )
    assert chain_net.common_path_impedance(2, 1, "a", "a") == pytest.approx(
        0.01 + 0.02j
    )


def test_disjoint_subtrees_have_zero_common_impedance():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
                {"id": 2, "phases": ["a"], "parent": 0},
            ],
            "lines": [
                {"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}},
                {"from": 0, "to": 2, "z": {"aa": [0.03, 0.04]}},
            ],
        }
    )
    assert net.common_path_impedance(1, 2, "a", "a") == 0


def test_missing_phase_pair_keys_mean_zero():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a", "b"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
        }
    )
    assert net.common_path_impedance(1, 1, "b", "b") == 0
    assert net.common_path_impedance(1, 1, "a", "b") == 0


def test_impedance_key_outside_line_phases_rejected():
    with pytest.raises(NetworkError, match="absent from bus"):
        load_network(
            {
                "buses": [
                    {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                    {"id": 1, "phases": ["a"], "parent": 0},
                ],
                "lines": [{"from": 0, "to": 1, "z": {"bb": [0.01, 0.02]}}],
            }
        )
    # Two such lines, listed out of id order: the line into the lower bus id is named.
    with pytest.raises(NetworkError, match=r"line \(0,3\) has impedance on phase c absent"):
        load_network(
            {
                "buses": [
                    {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                    {"id": 3, "phases": ["a"], "parent": 0},
                    {"id": 5, "phases": ["a"], "parent": 0},
                ],
                "lines": [
                    {"from": 0, "to": 5, "z": {"bb": [0.01, 0.02]}},
                    {"from": 0, "to": 3, "z": {"cc": [0.01, 0.02]}},
                ],
            }
        )


def test_negative_resistance_rejected():
    with pytest.raises(NetworkError, match="negative series resistance"):
        load_network(
            {
                "buses": [
                    {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                    {"id": 1, "phases": ["a"], "parent": 0},
                ],
                "lines": [{"from": 0, "to": 1, "z": {"aa": [-0.01, 0.02]}}],
            }
        )


@pytest.mark.parametrize("aa", [
    [float("nan"), 0.01], [0.01, float("inf")], [float("-inf"), 0.01],
], ids=["nan", "inf", "neg-inf"])
def test_non_finite_impedance_rejected(aa):
    with pytest.raises(NetworkError, match=r"line \(0,1\) has a non-finite impedance"):
        load_network(
            {
                "buses": [
                    {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                    {"id": 1, "phases": ["a"], "parent": 0},
                ],
                "lines": [{"from": 0, "to": 1, "z": {"aa": aa}}],
            }
        )


@pytest.mark.parametrize("seed", range(6))
def test_common_path_symmetry_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, int(rng.integers(10, 50)))
    ids = [b.id for b in net.buses]
    for _ in range(40):
        i, j = rng.choice(ids, size=2)
        for phi in "ab":
            for psi in "ab":
                assert net.common_path_impedance(
                    int(i), int(j), phi, psi
                ) == net.common_path_impedance(int(j), int(i), phi, psi)


@pytest.mark.parametrize("seed", range(6))
def test_common_path_matches_brute_force_enumeration(seed):
    rng = np.random.default_rng(100 + seed)
    net = random_network(rng, int(rng.integers(10, 50)))
    ids = [b.id for b in net.buses]
    for _ in range(60):
        i, j = (int(v) for v in rng.choice(ids, size=2))
        phi = "abc"[int(rng.integers(3))]
        psi = "abc"[int(rng.integers(3))]
        assert net.common_path_impedance(
            i, j, phi, psi
        ) == brute_force_common_path_impedance(net, i, j, phi, psi)


@pytest.mark.parametrize("seed", range(4))
def test_ancestor_absorbs_the_descendant_path(seed):
    rng = np.random.default_rng(200 + seed)
    net = random_network(rng, 40)
    for bus in net.buses:
        if bus.id == 0:
            continue
        path = brute_force_path(net, bus.id)
        for (_, anc) in path:
            shared = set(brute_force_path(net, anc)) & set(path)
            assert shared == set(brute_force_path(net, anc))
            assert net.common_path_impedance(
                bus.id, anc, "a", "a"
            ) == brute_force_common_path_impedance(net, bus.id, anc, "a", "a")


@pytest.mark.parametrize("seed", range(4))
def test_disjoint_subtrees_collapse_to_root_pair(seed):
    # Any pair drawn from two disjoint subtrees shares exactly the subtree
    # roots' common path; this is what the multilevel engines rely on.
    rng = np.random.default_rng(300 + seed)
    net = random_network(rng, 45)
    by_id = {b.id: b for b in net.buses}

    def subtree(root):
        ids = {root}
        changed = True
        while changed:
            changed = False
            for b in net.buses:
                if b.id not in ids and b.parent in ids:
                    ids.add(b.id)
                    changed = True
        return ids

    roots = [b.id for b in net.buses if b.id != 0]
    found = 0
    for _ in range(200):
        r, s = (int(v) for v in rng.choice(roots, size=2))
        tr, ts = subtree(r), subtree(s)
        if tr & ts:
            continue
        found += 1
        i = int(rng.choice(sorted(tr)))
        j = int(rng.choice(sorted(ts)))
        for phi, psi in (("a", "a"), ("a", "b")):
            assert net.common_path_impedance(i, j, phi, psi) == \
                net.common_path_impedance(r, s, phi, psi)
        if found > 30:
            break
    assert found > 0
    del by_id


@pytest.mark.parametrize("seed", range(4))
def test_path_length_equals_depth_and_prefix_reconstruction(seed):
    rng = np.random.default_rng(400 + seed)
    net = random_network(rng, 35)
    for bus in net.buses:
        path = net.path_to_root(bus.id)
        assert len(path) == net.depth[net.bus_pos(bus.id)]
        assert path == brute_force_path(net, bus.id)
    ids = [b.id for b in net.buses]
    for _ in range(30):
        i, j = (int(v) for v in rng.choice(ids, size=2))
        pi, pj = net.path_to_root(i), net.path_to_root(j)
        prefix = []
        for a, b in zip(pi, pj):
            if a != b:
                break
            prefix.append(a)
        assert set(prefix) == set(pi) & set(pj)


def test_document_round_trip(fig_net):
    doc = network_to_document(fig_net)
    net2 = load_network(doc)
    assert network_to_document(net2) == doc
    assert net2.n_flat == fig_net.n_flat
    assert net2.flat_labels() == fig_net.flat_labels()


def sparse_unordered_feeder() -> Network:
    """Sparse bus ids, some below their parent's, with buses and lines listed out of order."""
    tree = {  # bus id: (parent id, phases)
        40: (0, "abc"), 7: (40, "ab"), 12: (0, "abc"), 3: (12, "c"),
        25: (7, "b"), 19: (12, "ac"), 31: (40, "abc"), 2: (19, "a"),
    }
    buses = [Bus(bid, tuple(ph), parent) for bid, (parent, ph) in tree.items()]
    lines = []
    for bid, (parent, ph) in reversed(tree.items()):
        z = np.zeros((3, 3), dtype=np.complex128)
        for c in ph:
            z["abc".index(c), "abc".index(c)] = complex(0.001 * bid, 0.002 * bid)
        lines.append(Line(parent, bid, z))
    return Network([*buses, Bus(0, ("a", "b", "c"), None)], lines)


def lca_networks():
    yield fig_feeder()
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        yield random_network(rng, int(rng.integers(10, 60)), multi_phase=seed % 2 == 0)
    yield sparse_unordered_feeder()


LCA_NETWORK_IDS = ["fig", *map(str, range(5)), "sparse"]


@pytest.mark.parametrize("net", lca_networks(), ids=LCA_NETWORK_IDS)
def test_flat_index_space_is_bus_major_and_addressed_in_the_forest(net):
    np.testing.assert_array_equal(
        net.index_of[net.flat_bus_pos, net.flat_phase], np.arange(net.n_flat)
    )
    assert np.count_nonzero(net.index_of >= 0) == net.n_flat
    labels = net.flat_labels()
    assert labels == sorted(labels)
    assert set(labels) == {(b.id, ph) for b in net.buses if b.id != 0 for ph in b.phases}
    # The whole forest has one column per flat index, phase-major in DFS order.
    assert net.forest.n == net.n_flat
    np.testing.assert_array_equal(np.sort(net.forest.idx), np.arange(net.n_flat))
    assert_phase_major_dfs(net, net.forest)


def ancestors(net, k):
    """Positions on the path from bus position k up to the substation, k first."""
    out = [k]
    while net.parent_pos[out[-1]] >= 0:
        out.append(int(net.parent_pos[out[-1]]))
    return out


def brute_force_lca(net, a, b):
    above_b = set(ancestors(net, b))
    return next(k for k in ancestors(net, a) if k in above_b)


@pytest.mark.parametrize("net", lca_networks(), ids=LCA_NETWORK_IDS)
def test_lca_table_matches_scalar_queries(net):
    ids = [b.id for b in net.buses]
    rng = np.random.default_rng(7)
    for _ in range(50):
        i, j = (int(v) for v in rng.choice(ids, size=2))
        lca = net.lca(i, j)
        pi = [0] + [child for (_, child) in net.path_to_root(i)]
        pj = [0] + [child for (_, child) in net.path_to_root(j)]
        common = [a for a, b in zip(pi, pj) if a == b]
        assert lca == common[-1]
        assert net.bus_pos(lca) == brute_force_lca(net, net.bus_pos(i), net.bus_pos(j))


def subtree_positions(net, k):
    return net.order[net.tin[k]: net.tin[k] + net.size[k]]


def substation_branches(net):
    """net with bus 1's children moved onto the substation, their lines unchanged."""
    doc = network_to_document(net)
    moved = {b["id"] for b in doc["buses"] if b["parent"] == 1}
    for entry in doc["buses"]:
        if entry["id"] in moved:
            entry["parent"] = 0
    for entry in doc["lines"]:
        if entry["to"] in moved:
            entry["from"] = 0
    return load_network(doc)


def forest_cases(net, rng):
    """Named bus-position sets closed upward below their tops."""
    root = net.bus_pos(0)
    k = int(rng.integers(1, net.n_buses))
    subtree = subtree_positions(net, k)
    kept = set(subtree.tolist())
    for cut in rng.choice(subtree[1:], size=min(2, len(subtree) - 1), replace=False):
        kept -= set(subtree_positions(net, cut).tolist())
    return {
        "tree": net.order,
        "subtree": subtree,
        "subtree_with_cuts": np.array(sorted(kept)),
        "branches": np.setdiff1d(np.arange(net.n_buses), [root]),
    }


@pytest.mark.parametrize("seed", range(6))
def test_sensitivity_block_is_the_dense_submatrix_on_subsets(seed):
    # Each case's flat indices, shuffled and with some repeated: the block
    # must be byte-equal to R and X there. The branches case is every bus
    # but the substation, so its tops are the substation's children, whose
    # rows start from the substation's pair values.
    rng = np.random.default_rng(600 + seed)
    net = substation_branches(random_network(rng, int(rng.integers(8, 70))))
    sens = build_sensitivity(net)
    for name, buses in forest_cases(net, rng).items():
        held = net.index_of[buses]
        idx = held[held >= 0]
        idx = rng.permutation(np.append(idx, rng.choice(idx, size=len(idx) // 3 + 1)))
        block = sensitivity_block(net, idx)
        assert block.shape == (2, len(idx), len(idx)), name
        assert block[0].tobytes() == sens.r[np.ix_(idx, idx)].tobytes(), name
        assert block[1].tobytes() == sens.x[np.ix_(idx, idx)].tobytes(), name


def subset_cases(net, rng):
    """Named bus-position subsets: connected or not, with and without bus 0."""
    root = net.bus_pos(0)
    k = int(rng.integers(1, net.n_buses))
    connected = net.order[net.tin[k]: net.tin[k] + net.size[k]]
    scattered = rng.choice(np.arange(1, net.n_buses), size=min(6, net.n_buses - 1),
                           replace=False)
    return {
        "subtree": connected,
        "subtree_and_substation": np.append(connected, root),
        "root_path": np.array(ancestors(net, k)),
        "scattered": scattered,
        "scattered_and_substation": np.append(scattered, root),
        "single": np.array([k]),
        "repeats": np.concatenate([scattered, scattered[::-1]]),
    }


def flat_indices_at(net, buses):
    """The flat indices of bus positions, bus by bus, repeats kept."""
    held = net.index_of[np.asarray(buses, dtype=np.int64)]
    return held[held >= 0]


# Row counts and dtypes of forest arrays, in an order that mixes both, so
# that anything a forest keeps for one shape is read again at another:
# the voltage map's two real rows and its one real row, the adjoint's one
# real row and two real rows, the power flow's one complex row.
FOREST_SHAPES = [
    (2, np.float64), (1, np.complex128), (1, np.float64), (2, np.complex128),
]


def forest_array(rng, rows, n, dtype):
    x = rng.normal(size=(rows, n)).astype(dtype)
    if dtype is np.complex128:
        x += 1j * rng.normal(size=(rows, n))
    return x


def assert_phase_major_dfs(net, forest):
    """Columns run phase by phase, each phase's block in DFS order."""
    key = net.flat_phase[forest.idx] * net.n_buses + net.tin[net.flat_bus_pos[forest.idx]]
    assert (np.diff(key) > 0).all()


def parent_walk_sums(net, idx, x):
    """Subtree and ancestor sums of x, a column per flat index of idx, by parent walks.

    An index's parent is the same phase at its parent bus; each column
    meets the nearest of its ancestors that idx holds, one depth level at
    a time from the substation down.
    """
    up = net.index_of[net.parent_pos[net.flat_bus_pos], net.flat_phase]
    col = np.full(net.n_flat, -1)
    col[idx] = np.arange(len(idx))
    above = np.full(net.n_flat, -1)  # the column of the nearest held strict ancestor
    by_depth = np.argsort(net.depth[net.flat_bus_pos], kind="stable").tolist()
    for k in by_depth:
        if up[k] >= 0:
            above[k] = col[up[k]] if col[up[k]] >= 0 else above[up[k]]
    held = [(int(col[k]), int(above[k])) for k in by_depth if col[k] >= 0]
    subtree, ancestor = x.copy(), x.copy()
    for c, a in reversed(held):
        if a >= 0:
            subtree[:, a] += subtree[:, c]
    for c, a in held:
        if a >= 0:
            ancestor[:, c] += ancestor[:, a]
    return subtree, ancestor


def assert_forest_sums_match_parent_walk(net, forest, rng):
    """A forest's sums see exactly the ancestors and descendants it holds,
    at every shape in FOREST_SHAPES, called in turn on the same forest."""
    for rows, dtype in FOREST_SHAPES:
        x = forest_array(rng, rows, forest.n, dtype)
        kept = x.copy()
        want = parent_walk_sums(net, forest.idx, x)
        got = forest.subtree_sums(x), forest.ancestor_sums(x)
        np.testing.assert_array_equal(x, kept)
        for g, w in zip(got, want):
            assert g.shape == x.shape and g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def assert_subforest_holds(net, idx, cols, forest):
    """Exactly the distinct indices given, one column each, cols mapping idx to them."""
    distinct = np.unique(idx)
    assert forest.n == len(distinct)
    np.testing.assert_array_equal(np.sort(forest.idx), distinct)
    np.testing.assert_array_equal(forest.idx[cols], idx)
    assert_phase_major_dfs(net, forest)


@pytest.mark.parametrize("seed", range(6))
def test_subforest_columns_match_brute_force_on_subsets(seed):
    rng = np.random.default_rng(650 + seed)
    net = random_network(rng, int(rng.integers(8, 70)))
    for name, buses in subset_cases(net, rng).items():
        idx = flat_indices_at(net, buses)
        cols, forest = net.subforest(idx)
        assert_subforest_holds(net, idx, cols, forest)
        assert_forest_sums_match_parent_walk(net, forest, rng)


@pytest.mark.parametrize("seed", range(4))
def test_subforest_sums_match_parent_walk_inside_the_set(seed):
    # A subtree with some of its own subtrees cut away is closed upward,
    # as a scope's remainder is; its sums see only the indices it keeps,
    # and its ancestor sums of line impedances are the root-path
    # impedances, at each column's own phase.
    rng = np.random.default_rng(680 + seed)
    net = random_network(rng, int(rng.integers(20, 70)))
    top = int(rng.integers(1, net.n_buses))
    keep = set(net.order[net.tin[top]: net.tin[top] + net.size[top]].tolist())
    for cut in rng.choice(sorted(keep - {top}), size=min(2, len(keep) - 1), replace=False):
        keep -= set(net.order[net.tin[cut]: net.tin[cut] + net.size[cut]].tolist())
    idx = flat_indices_at(net, sorted(keep))
    cols, forest = net.subforest(idx)
    assert_subforest_holds(net, idx, cols, forest)
    bus, phase = net.flat_bus_pos[forest.idx], net.flat_phase[forest.idx]
    at_top = bus == top
    np.testing.assert_array_equal(
        forest.z_line[at_top], net.z_prefix[top, phase[at_top], phase[at_top]]
    )
    np.testing.assert_allclose(
        forest.ancestor_sums(forest.z_line[None])[0], net.z_prefix[bus, phase, phase],
        rtol=0, atol=1e-12,
    )
    assert_forest_sums_match_parent_walk(net, forest, rng)


def test_sensitivity_block_of_no_indices_is_empty(fig_net):
    none = np.zeros(0, dtype=np.int64)
    assert sensitivity_block(fig_net, none).shape == (2, 0, 0)
    cols, forest = fig_net.subforest(none)
    assert cols.shape == (0,) and forest.n == 0
    assert_forest_sums_match_parent_walk(fig_net, forest, np.random.default_rng(0))


def several_tops(net, rng):
    """Flat indices under four random buses, with cuts, and a third of them again."""
    keep = set()
    for top in rng.choice(np.arange(1, net.n_buses), size=min(4, net.n_buses - 1),
                          replace=False):
        below = subtree_positions(net, top)
        cut = below[int(rng.integers(len(below)))]
        keep |= set(below.tolist()) - set(subtree_positions(net, cut).tolist())
    idx = flat_indices_at(net, sorted(keep))
    return np.concatenate([idx, rng.choice(idx, size=len(idx) // 3)]) if len(idx) else idx


TREE_SUM_NETWORKS = {
    "fig": fig_feeder,
    "drop400": lambda: generate(FeederSpec(400, seed=1, phase_drop=0.4)).net,
    "chain3000": lambda: long_chain(3000),
    **{f"random{seed}": (lambda seed=seed: random_network(
        np.random.default_rng(700 + seed), 60, multi_phase=seed != 3)) for seed in range(4)},
}


@pytest.mark.parametrize("name", list(TREE_SUM_NETWORKS))
def test_flat_forests_match_parent_walks(name):
    # The whole forest and subforests with several tops and repeated
    # indices, at one and two real rows and one complex row.
    net = TREE_SUM_NETWORKS[name]()
    rng = np.random.default_rng(31)
    cols, forest = net.subforest(np.arange(net.n_flat))
    assert_subforest_holds(net, np.arange(net.n_flat), cols, forest)
    np.testing.assert_array_equal(forest.idx, net.forest.idx)
    assert_forest_sums_match_parent_walk(net, net.forest, rng)
    for _ in range(3):
        idx = several_tops(net, rng)
        cols, forest = net.subforest(idx)
        assert_subforest_holds(net, idx, cols, forest)
        assert_forest_sums_match_parent_walk(net, forest, rng)


@pytest.mark.parametrize("net", lca_networks(), ids=LCA_NETWORK_IDS)
def test_dfs_interval_is_the_subtree(net):
    assert sorted(net.order) == list(range(net.n_buses))
    assert net.order[0] == net.bus_pos(0)
    for k in range(net.n_buses):
        below = {d for d in range(net.n_buses) if k in ancestors(net, d)}
        interval = net.order[net.tin[k]: net.tin[k] + net.size[k]]
        assert interval[0] == k
        assert set(interval.tolist()) == below
        assert net.size[k] == len(below)


@pytest.mark.parametrize(
    "net", [*lca_networks(), long_chain(3000)], ids=[*LCA_NETWORK_IDS, "chain3000"]
)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_tree_sums_match_parent_walk(net, dtype):
    rng = np.random.default_rng(13)
    forest = net.forest
    for rows in (2, 1):
        x = forest_array(rng, rows, forest.n, dtype)
        kept = x.copy()
        got = forest.subtree_sums(x), forest.ancestor_sums(x)
        assert got[0].dtype == dtype and got[1].dtype == dtype
        np.testing.assert_array_equal(x, kept)
        for g, want in zip(got, parent_walk_sums(net, forest.idx, x)):
            tol = 1e-12 * (1.0 + np.max(np.abs(want)))
            assert np.max(np.abs(g - want)) <= tol


# -- documents and records -------------------------------------------------

NETWORK_ARRAYS = (
    "parent_pos", "order", "tin", "size", "depth", "phase_mask", "z_line", "z_prefix",
    "index_of", "flat_bus_pos", "flat_phase",
)
PROBLEM_ARRAYS = ("z0", "w", "z_min", "z_max", "device_index")


def assert_bitwise(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def json_round_trip(document):
    return json.loads(json.dumps(document))


def criterion_1_feeders():
    """The 100 feeders of acceptance criterion 1, drawn as its test draws them."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
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
        rng.uniform(0, 2, (2, feeder.net.n_flat))  # the test's two dual draws
        yield feeder


FEEDER_FAMILIES = {
    "criterion-1": criterion_1_feeders,
    "spec-400-drop": lambda: [generate(FeederSpec(400, seed=1, phase_drop=0.4))],
    "gen4k": lambda: [generate(FeederSpec(4000, seed=0, load_scale=0.05), 400, 100)],
}


@pytest.mark.parametrize("family", list(FEEDER_FAMILIES))
def test_document_and_record_paths_agree_bitwise(family):
    for feeder in FEEDER_FAMILIES[family]():
        net_doc, device_doc, _ = map(json_round_trip, feeder_documents(feeder))
        net = load_network(net_doc)
        assert_bitwise(net, feeder.net, NETWORK_ARRAYS)
        got = load_problem(device_doc, net, None)
        want = make_problem(
            feeder.net, None, list(feeder.devices), feeder.background, feeder.v_min, feeder.v_max
        )
        assert_bitwise(got, want, PROBLEM_ARRAYS)
        assert_bitwise(got.bounds, want.bounds, ("v_lower", "v_upper"))
        assert got.devices == want.devices == feeder.devices


@pytest.mark.parametrize("net", [long_chain(3000), broom_feeder(500)], ids=["chain", "broom"])
def test_document_and_record_networks_agree_bitwise(net):
    assert_bitwise(load_network(json_round_trip(network_to_document(net))), net, NETWORK_ARRAYS)


def test_loading_documents_builds_no_records(monkeypatch):
    feeder = generate(FeederSpec(200, seed=4))
    net_doc, device_doc, _ = map(json_round_trip, feeder_documents(feeder))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} record was built")

    for module, name in ((network, "Bus"), (network, "Line"), (opf, "Device")):
        record = getattr(module, name)
        monkeypatch.setattr(module, name, type(name, (record,), {"__init__": refuse}))
    net = load_network(net_doc)
    assert load_problem(device_doc, net, None).n == feeder.net.n_flat


def test_largest_int64_bus_id_loads():
    top = 2**63 - 1
    net = load_network(json_round_trip({
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": top, "phases": ["a"], "parent": 0},
        ],
        "lines": [{"from": 0, "to": top, "z": {"aa": [0.01, 0.02]}}],
    }))
    assert net.flat_labels() == [(top, "a")]
    assert net.path_to_root(top) == [(0, top)]


# -- naming the first malformed entry ----------------------------------------

def small_documents():
    """The network and device documents of a 30-bus feeder, as parsed JSON."""
    net_doc, device_doc, _ = feeder_documents(generate(FeederSpec(30, seed=3)))
    return json_round_trip(net_doc), json_round_trip(device_doc)


def _edit(entries, k, **fields):
    entries[k] = {**entries[k], **fields}


def empty_box_before_bad_field(net_doc, device_doc):
    devices = device_doc["devices"]
    _edit(devices, 1, pmin=devices[1]["pmax"] + 1.0)
    _edit(devices, 2, p0="x")
    return "devices", 1, f"device at bus {devices[1]['bus']}: empty box"


def bad_phases_before_bad_id(net_doc, device_doc):
    _edit(net_doc["buses"], 2, phases=["d"])
    _edit(net_doc["buses"], 3, id=1.5)
    return "buses", 2, "unknown phase 'd'"


def unknown_key_before_bad_id(net_doc, device_doc):
    _edit(net_doc["buses"], 2, foo=1, id=1.5)
    return "buses", 2, "entry has unknown key 'foo'"


def phases_before_id_in_one_entry(net_doc, device_doc):
    _edit(net_doc["buses"], 2, phases=["d"], id=1.5)
    return "buses", 2, "unknown phase 'd'"


def bad_parent_before_missing_id(net_doc, device_doc):
    buses = net_doc["buses"]
    _edit(buses, 2, parent=0.5)
    buses[3] = {key: value for key, value in buses[3].items() if key != "id"}
    return "buses", 2, "bus id 0.5 is not an integer"


def bad_id_before_non_object(net_doc, device_doc):
    _edit(net_doc["buses"], 2, id=1.5)
    net_doc["buses"].insert(3, 5)
    return "buses", 2, "bus id 1.5 is not an integer"


@pytest.mark.parametrize("case", [
    empty_box_before_bad_field, bad_phases_before_bad_id, unknown_key_before_bad_id,
    phases_before_id_in_one_entry, bad_parent_before_missing_id, bad_id_before_non_object,
], ids=lambda case: case.__name__)
def test_first_offender_is_the_earliest_entry_at_its_first_failed_rule(case):
    # The earliest entry in list order that fails anything is named; within
    # it, its type and keys go first, then its fields in order, then checks.
    net_doc, device_doc = small_documents()
    key, k, failure = case(net_doc, device_doc)
    if key == "devices":
        net = load_network(net_doc)
        with pytest.raises(opf.ProblemError) as caught:
            load_problem(device_doc, net, None)
        entry = f"device entry {device_doc['devices'][k]!r}"
    else:
        with pytest.raises(NetworkError) as caught:
            load_network(net_doc)
        entry = f"bus entry {net_doc['buses'][k]!r}"
    assert str(caught.value) == f"malformed {entry}: {failure}"


def test_unhashable_device_phase_is_named():
    net_doc, device_doc = small_documents()
    _edit(device_doc["devices"], 0, phase=[])
    with pytest.raises(opf.ProblemError) as caught:
        load_problem(device_doc, load_network(net_doc), None)
    assert str(caught.value) == (
        f"malformed device entry {device_doc['devices'][0]!r}: unknown phase []"
    )


def test_loading_reads_each_document_list_once(monkeypatch):
    # Valid documents take the whole-list read alone: one read per list,
    # never an entry-by-entry re-read.
    feeder = generate(FeederSpec(4000, seed=0, load_scale=0.05), 400, 100)
    net_doc, device_doc, part_doc = map(json_round_trip, feeder_documents(feeder))
    reads, read = [], documents._read_entries

    def counted(entries, *args):
        reads.append(len(entries))
        return read(entries, *args)

    monkeypatch.setattr(documents, "_read_entries", counted)
    net = load_network(net_doc)
    load_problem(device_doc, net, None)
    load_partition(part_doc, net)
    assert reads == [
        len(net_doc["buses"]), len(net_doc["lines"]), len(device_doc["devices"]),
        len(device_doc["background"]), len(part_doc["areas"]),
    ]


# -- document and record rules no other test reaches -------------------------

def test_invalid_json_document_is_rejected(tmp_path):
    path = tmp_path / "network.json"
    path.write_text('{"buses": [')
    with pytest.raises(NetworkError, match="network document is not valid JSON"):
        load_network(path)


@pytest.mark.parametrize("key", ["buses", "lines"])
def test_network_document_needs_buses_and_lines(key):
    doc = chain_doc()
    del doc[key]
    with pytest.raises(NetworkError, match=f"network document lacks key '{key}'"):
        load_network(doc)


def test_bus_phases_load_sorted():
    net = load_network(one_line_doc(["c", "a"]))
    assert net.buses[1].phases == ("a", "c")
    assert net.flat_labels() == [(1, "a"), (1, "c")]


def _substation_without_bus_0(doc):
    doc["buses"] = [bus for bus in doc["buses"] if bus["id"] != 0]
    doc["buses"][0]["parent"] = None


@pytest.mark.parametrize("edit, message", [
    (_substation_without_bus_0, "substation bus 0 is missing"),
    (lambda doc: doc["buses"][0].update(parent=1), "substation bus 0 must not have a parent"),
    (lambda doc: doc["buses"][0].update(phases=["a"]),
     "substation bus 0 must carry phases a, b, c"),
    (lambda doc: doc["lines"][1].update({"from": 0}),
     "line (0,2) disagrees with bus 2's parent 1"),
], ids=["missing", "with-parent", "one-phase", "line-disagrees"])
def test_substation_and_line_rules_of_a_document(edit, message):
    doc = chain_doc()
    edit(doc)
    with pytest.raises(NetworkError) as caught:
        load_network(doc)
    assert str(caught.value) == message


@pytest.mark.parametrize("bus_id", [-1, 2**63])
def test_record_bus_ids_outside_int64_or_negative_are_rejected(bus_id):
    z = np.zeros((3, 3), dtype=np.complex128)
    z[0, 0] = 0.01 + 0.02j
    with pytest.raises(NetworkError) as caught:
        Network([Bus(0, ("a", "b", "c"), None), Bus(bus_id, ("a",), 0)], [Line(0, bus_id, z)])
    entry = {"id": bus_id, "phases": ("a",), "parent": 0}
    assert str(caught.value) == (
        f"malformed bus entry {entry!r}: bus id {bus_id} is outside [0, 2**63 - 1]"
    )


# -- records read as their document twins -------------------------------------

def record_network(bus_id=1, phases=("a",), to=None):
    """Substation and one bus, from Bus and Line records."""
    z = np.zeros((3, 3), dtype=np.complex128)
    z[0, 0] = 0.01 + 0.02j
    return Network(
        [Bus(0, ("a", "b", "c"), None), Bus(bus_id, phases, 0)],
        [Line(0, bus_id if to is None else to, z)],
    )


def document_network(bus_id=1, phases=("a",), to=None):
    """record_network's twin, written as a network document."""
    return load_network({
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": bus_id, "phases": list(phases) if isinstance(phases, tuple) else phases,
             "parent": 0},
        ],
        "lines": [{"from": 0, "to": bus_id if to is None else to, "z": {"aa": [0.01, 0.02]}}],
    })


DEVICE = {"bus": 1, "phase": "a", "p0": 0.0, "q0": 0.0,
          "p_min": -1.0, "p_max": 1.0, "q_min": -1.0, "q_max": 1.0}
DOCUMENT_KEY = {"p_min": "pmin", "p_max": "pmax", "q_min": "qmin", "q_max": "qmax"}


def record_problem(device=None, background=None):
    """One device, or one background load at (1, background), from records."""
    if background is not None:
        return make_problem(record_network(), None, [], {(1, background): (-0.1, -0.05)})
    return make_problem(record_network(), None, [Device(**{**DEVICE, **device})])


def document_problem(device=None, background=None):
    """record_problem's twin, written as a device document."""
    if background is not None:
        doc = {"background": [{"bus": 1, "phase": background, "p": -0.1, "q": -0.05}]}
    else:
        doc = {"devices": [{DOCUMENT_KEY.get(k, k): v for k, v in {**DEVICE, **device}.items()}]}
    return load_problem(doc, document_network(), None)


# entry kind, the edit to the record and its twin, and the rejection (None: accepted)
RECORD_TWINS = {
    "bus-id-1.5": ("bus", {"bus_id": 1.5, "to": 1}, "bus id 1.5 is not an integer"),
    "line-to-1.5": ("line", {"to": 1.5}, "bus id 1.5 is not an integer"),
    "bus-id-true": ("bus", {"bus_id": True, "to": 1}, "True is not a JSON number"),
    "bus-id-string": ("bus", {"bus_id": "3", "to": 3}, "'3' is not a JSON number"),
    "phases-string": ("bus", {"phases": "abc"}, "phases 'abc' is not a JSON array"),
    "phases-unsorted": ("bus", {"phases": ("b", "a")}, None),
    "bus-id-np-int64": ("bus", {"bus_id": np.int64(4)}, None),
    "bus-id-2.0": ("bus", {"bus_id": 2.0}, None),
    "device-bus-1.5": ("device", {"device": {"bus": 1.5}}, "bus id 1.5 is not an integer"),
    "device-bus-true": ("device", {"device": {"bus": True}}, "True is not a JSON number"),
    "device-phase-0": ("device", {"device": {"phase": 0}}, "unknown phase 0"),
    "background-phase-0": ("background", {"background": 0}, "unknown phase 0"),
    "device-p0-true": ("device", {"device": {"p0": True}}, "True is not a JSON number"),
    "device-bus-np-int64": ("device", {"device": {"bus": np.int64(1)}}, None),
}


@pytest.mark.parametrize("case", list(RECORD_TWINS))
def test_records_are_read_as_their_document_twins(case):
    entry, edit, fault = RECORD_TWINS[case]
    if entry in ("bus", "line"):
        builders, error = (record_network, document_network), NetworkError
    else:
        builders, error = (record_problem, document_problem), ProblemError
    if fault is not None:
        for build in builders:
            with pytest.raises(error) as caught:
                build(**edit)
            message = str(caught.value)
            assert message.startswith(f"malformed {entry} entry "), message
            assert message.endswith(f": {fault}"), message
    elif entry == "bus":
        record, document = (build(**edit) for build in builders)
        assert record.flat_labels() == document.flat_labels()
        assert_bitwise(record, document, NETWORK_ARRAYS)
    else:
        record, document = (build(**edit) for build in builders)
        assert record.devices == document.devices
        assert_bitwise(record, document, PROBLEM_ARRAYS)


def test_record_line_impedance_must_be_three_by_three():
    z = np.zeros(9, dtype=np.complex128)
    z[0] = 0.01 + 0.02j
    with pytest.raises(NetworkError) as caught:
        Network([Bus(0, ("a", "b", "c"), None), Bus(1, ("a",), 0)], [Line(0, 1, z)])
    assert str(caught.value) == "line (0,1): z must have shape (3, 3), not (9,)"


def test_the_substation_has_no_incoming_line(chain_net):
    with pytest.raises(NetworkError, match="^bus 0 has no incoming line$"):
        chain_net.line_to(0)


def test_a_line_impedance_key_outside_the_phase_pairs_is_rejected():
    doc = chain_doc()
    doc["lines"][0]["z"] = {"ad": [0.01, 0.02]}
    with pytest.raises(NetworkError) as caught:
        load_network(doc)
    entry = doc["lines"][0]
    assert str(caught.value) == f"malformed line entry {entry!r}: line (0,1): bad impedance key 'ad'"
