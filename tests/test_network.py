"""Network model: loading, validation, paths, common-path impedance."""

from __future__ import annotations

import numpy as np
import pytest

from mlopf.network import (
    Bus,
    Line,
    Network,
    NetworkError,
    load_network,
    network_to_document,
)
from mlopf.sensitivity import build_sensitivity, sensitivity_block

from conftest import (
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
    phases, cols = np.divmod(net.flat_cell, net.n_buses)
    np.testing.assert_array_equal(phases, net.flat_phase)
    np.testing.assert_array_equal(net.forest.buses[cols], net.flat_bus_pos)


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


def assert_forest_sums_match_parent_walk(net, forest, rng):
    """A forest's sums see exactly the ancestors and descendants it holds."""
    x = rng.normal(size=(3, forest.n))
    col = {int(b): r for r, b in enumerate(forest.buses)}
    subtree = np.zeros_like(x)
    ancestor = np.zeros_like(x)
    for r, b in enumerate(forest.buses.tolist()):
        for a in ancestors(net, b):
            if a in col:
                subtree[:, col[a]] += x[:, r]
                ancestor[:, r] += x[:, col[a]]
    np.testing.assert_allclose(forest.subtree_sums(x), subtree, rtol=0, atol=1e-12)
    np.testing.assert_allclose(forest.ancestor_sums(x), ancestor, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_subforest_columns_match_brute_force_on_subsets(seed):
    rng = np.random.default_rng(650 + seed)
    net = random_network(rng, int(rng.integers(8, 70)))
    for name, buses in subset_cases(net, rng).items():
        cols, forest = net.subforest(buses)
        np.testing.assert_array_equal(forest.buses[cols], buses, err_msg=name)
        assert sorted(forest.buses.tolist()) == sorted(set(buses.tolist())), name
        assert list(net.tin[forest.buses]) == sorted(net.tin[forest.buses]), name
        assert_forest_sums_match_parent_walk(net, forest, rng)


@pytest.mark.parametrize("seed", range(4))
def test_subforest_sums_match_parent_walk_inside_the_set(seed):
    # A subtree with some of its own subtrees cut away is closed upward,
    # as a scope's remainder is; its sums see only the buses it keeps, and
    # its ancestor sums of line impedances are the root-path impedances.
    rng = np.random.default_rng(680 + seed)
    net = random_network(rng, int(rng.integers(20, 70)))
    top = int(rng.integers(1, net.n_buses))
    keep = set(net.order[net.tin[top]: net.tin[top] + net.size[top]].tolist())
    for cut in rng.choice(sorted(keep - {top}), size=min(2, len(keep) - 1), replace=False):
        keep -= set(net.order[net.tin[cut]: net.tin[cut] + net.size[cut]].tolist())
    cols, forest = net.subforest(sorted(keep))
    np.testing.assert_array_equal(forest.buses[cols], sorted(keep))
    z_top = forest.z_line[:, :, 0]
    np.testing.assert_array_equal(z_top, net.z_prefix[top])
    for phi in range(3):
        np.testing.assert_allclose(
            forest.ancestor_sums(forest.z_line[phi]), net.z_prefix[forest.buses, phi].T,
            rtol=0, atol=1e-12,
        )
    assert_forest_sums_match_parent_walk(net, forest, rng)


def test_sensitivity_block_of_no_indices_is_empty(fig_net):
    none = np.zeros(0, dtype=np.int64)
    assert sensitivity_block(fig_net, none).shape == (2, 0, 0)
    cols, forest = fig_net.subforest(none)
    assert cols.shape == (0,) and forest.n == 0


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
    n = net.n_buses
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, n)).astype(dtype)
    if dtype is np.complex128:
        x += 1j * rng.normal(size=(3, n))
    kept = x.copy()
    # Brute force over bus positions: children into parents deepest first,
    # then parents into children from the substation down.
    parent = net.parent_pos.tolist()
    by_depth = np.argsort(net.depth, kind="stable").tolist()
    subtree = x[:, net.tin].copy()
    for k in reversed(by_depth):
        if parent[k] >= 0:
            subtree[:, parent[k]] += subtree[:, k]
    ancestor = x[:, net.tin].copy()
    for k in by_depth:
        if parent[k] >= 0:
            ancestor[:, k] += ancestor[:, parent[k]]

    got_subtree = net.forest.subtree_sums(x)
    got_ancestor = net.forest.ancestor_sums(x)
    assert got_subtree.dtype == dtype and got_ancestor.dtype == dtype
    np.testing.assert_array_equal(x, kept)
    for got, want in ((got_subtree, subtree), (got_ancestor, ancestor)):
        got = got[:, net.tin]  # DFS columns back to bus positions
        tol = 1e-12 * (1.0 + np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= tol
