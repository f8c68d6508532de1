"""Sensitivity entries, dense build, linear voltage model."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mlopf.feedergen import FeederSpec, generate
from mlopf.network import Bus, Line, Network, NetworkError, load_network, rotated_pairs
from mlopf.sensitivity import (
    OMEGA,
    OMEGA_POW,
    SensitivityMatrices,
    adjoint_sweep,
    build_sensitivity,
    dv_dp_entry,
    dv_dq_entry,
    voltage_linear,
)
from mlopf.solver import LinearVoltageModel

from conftest import (
    broom_feeder,
    brute_force_common_path_impedance,
    chain_doc,
    fig_feeder,
    long_chain,
    random_network,
    refuse_dense_build,
)


def test_rotation_constant_properties():
    assert abs(OMEGA**3 - 1.0) < 1e-15
    assert abs(OMEGA.real + 0.5) < 1e-15
    for k in range(-2, 3):
        assert OMEGA_POW[2 - k] == np.conj(OMEGA_POW[2 + k])


def test_dv_dp_entry_chain_values():
    net = load_network(chain_doc())
    assert dv_dp_entry(net, 2, "a", 1, "a") == pytest.approx(0.02)
    assert dv_dp_entry(net, 2, "a", 2, "a") == pytest.approx(0.03)


def test_dv_dq_entry_chain_values():
    net = load_network(chain_doc())
    assert dv_dq_entry(net, 2, "a", 2, "a") == pytest.approx(0.06)


def test_entries_zero_for_disjoint_subtrees():
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
    assert dv_dp_entry(net, 1, "a", 2, "a") == 0.0
    assert dv_dq_entry(net, 1, "a", 2, "a") == 0.0


def test_cross_phase_entry_matches_complex_arithmetic():
    # One three-phase line with a mutual a/b entry on the common path.
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a", "b", "c"], "parent": 0},
            ],
            "lines": [
                {
                    "from": 0,
                    "to": 1,
                    "z": {
                        "aa": [0.01, 0.02], "bb": [0.01, 0.02], "cc": [0.01, 0.02],
                        "ab": [0.002, 0.004], "ba": [0.002, 0.004],
                    },
                }
            ],
        }
    )
    z = complex(0.002, 0.004)
    rot = np.exp(1j * 2 * np.pi / 3)  # omega**(code a - code b) = omega**-1
    expected = -2.0 * (np.conj(z) * rot).imag
    assert dv_dq_entry(net, 1, "a", 1, "b") == pytest.approx(expected, rel=1e-12)
    expected_p = 2.0 * (np.conj(z) * rot).real
    assert dv_dp_entry(net, 1, "a", 1, "b") == pytest.approx(expected_p, rel=1e-12)


def test_entry_rejects_absent_phase():
    net = load_network(chain_doc())
    with pytest.raises(NetworkError, match="does not carry phase"):
        dv_dp_entry(net, 2, "b", 1, "a")


def test_two_bus_matrices_are_two_r_and_two_x():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
        }
    )
    sens = build_sensitivity(net)
    np.testing.assert_allclose(sens.r, [[0.02]])
    np.testing.assert_allclose(sens.x, [[0.04]])


def test_chain_block_symmetry():
    sens = build_sensitivity(load_network(chain_doc()))
    assert sens.r[0, 1] == sens.r[1, 0]
    assert sens.x[0, 1] == sens.x[1, 0]


def test_zero_impedance_network_gives_flat_profile():
    doc = chain_doc()
    for line in doc["lines"]:
        line["z"] = {}
    sens = build_sensitivity(load_network(doc))
    assert np.all(sens.r == 0) and np.all(sens.x == 0)
    rng = np.random.default_rng(0)
    p, q = rng.normal(size=2), rng.normal(size=2)
    np.testing.assert_array_equal(voltage_linear(sens, p, q), sens.v_tilde)


def test_voltage_at_zero_injection_is_v_tilde():
    sens = build_sensitivity(fig_feeder())
    n = sens.n
    np.testing.assert_array_equal(
        voltage_linear(sens, np.zeros(n), np.zeros(n)), sens.v_tilde
    )


def test_voltage_model_is_affine():
    sens = build_sensitivity(fig_feeder())
    rng = np.random.default_rng(1)
    p, q = rng.normal(size=sens.n), rng.normal(size=sens.n)
    v1 = voltage_linear(sens, p, q) - sens.v_tilde
    v2 = voltage_linear(sens, 2 * p, 2 * q) - sens.v_tilde
    np.testing.assert_allclose(v2, 2 * v1, rtol=1e-12, atol=1e-15)


def test_two_bus_voltage_hand_value():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
        }
    )
    sens = build_sensitivity(net)
    v = voltage_linear(sens, np.array([1.0]), np.array([1.0]))
    assert v[0] == pytest.approx(1.06)


def test_dimension_mismatch_raises():
    sens = build_sensitivity(load_network(chain_doc()))
    with pytest.raises(ValueError, match="shape"):
        voltage_linear(sens, np.zeros(3), np.zeros(2))


@pytest.mark.parametrize("seed", range(4))
def test_finite_differences_recover_matrix_entries(seed):
    rng = np.random.default_rng(500 + seed)
    net = random_network(rng, int(rng.integers(8, 30)))
    sens = build_sensitivity(net)
    n = sens.n
    p, q = rng.normal(0, 0.1, n), rng.normal(0, 0.1, n)
    h = 1e-6
    for col in rng.choice(n, size=min(n, 8), replace=False):
        e = np.zeros(n)
        e[col] = h
        dp = (voltage_linear(sens, p + e, q) - voltage_linear(sens, p - e, q)) / (2 * h)
        dq = (voltage_linear(sens, p, q + e) - voltage_linear(sens, p, q - e)) / (2 * h)
        np.testing.assert_allclose(dp, sens.r[:, col], atol=1e-8)
        np.testing.assert_allclose(dq, sens.x[:, col], atol=1e-8)


@pytest.mark.parametrize("multi_phase", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_symmetric_impedances_give_symmetric_matrices(seed, multi_phase):
    # The cross-phase rotation preserves reciprocity only when the mutual
    # common-path impedance vanishes, so the symmetric family is the
    # phase-decoupled one (diagonal, hence symmetric, line matrices).
    rng = np.random.default_rng(600 + seed)
    net = random_network(rng, 30, multi_phase=multi_phase, mutual="none")
    sens = build_sensitivity(net)
    np.testing.assert_allclose(sens.r, sens.r.T, atol=1e-12)
    np.testing.assert_allclose(sens.x, sens.x.T, atol=1e-12)


def test_same_phase_entries_always_reciprocal():
    rng = np.random.default_rng(611)
    net = random_network(rng, 30, symmetric=True, mutual="complex")
    sens = build_sensitivity(net)
    ph = net.flat_phase
    same = ph[:, None] == ph[None, :]
    np.testing.assert_allclose(sens.r[same], sens.r.T[same], atol=1e-12)
    np.testing.assert_allclose(sens.x[same], sens.x.T[same], atol=1e-12)


def test_mutual_coupling_breaks_cross_phase_reciprocity():
    # The rotation flips sign between the two orientations of an unlike
    # phase pair, so even a symmetric line matrix yields R[ab] - R[ba] =
    # 2*sqrt(3)*Im(Z_mutual) and X[ab] - X[ba] = -2*sqrt(3)*Re(Z_mutual).
    # Documents why full matrix symmetry needs phase-decoupled lines.
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a", "b", "c"], "parent": 0},
            ],
            "lines": [
                {
                    "from": 0,
                    "to": 1,
                    "z": {
                        "aa": [0.01, 0.02], "bb": [0.01, 0.02], "cc": [0.01, 0.02],
                        "ab": [0.002, 0.004], "ba": [0.002, 0.004],
                    },
                }
            ],
        }
    )
    sens = build_sensitivity(net)
    a = net.flat_index(1, "a")
    b = net.flat_index(1, "b")
    assert sens.r[a, b] - sens.r[b, a] == pytest.approx(
        2.0 * np.sqrt(3.0) * 0.004, rel=1e-12
    )
    assert sens.x[a, b] - sens.x[b, a] == pytest.approx(
        -2.0 * np.sqrt(3.0) * 0.002, rel=1e-12
    )


@pytest.mark.parametrize("seed", range(4))
def test_matrix_entries_match_brute_force_paths(seed):
    rng = np.random.default_rng(700 + seed)
    net = random_network(rng, int(rng.integers(8, 50)))
    sens = build_sensitivity(net)
    labels = net.flat_labels()
    for _ in range(40):
        a, b = (int(v) for v in rng.integers(0, net.n_flat, size=2))
        (bi, phi), (bj, psi) = labels[a], labels[b]
        z = brute_force_common_path_impedance(net, bi, bj, phi, psi)
        rot = OMEGA_POW["abc".index(phi) - "abc".index(psi) + 2]
        assert sens.r[a, b] == 2.0 * (np.conj(z) * rot).real
        assert sens.x[a, b] == -2.0 * (np.conj(z) * rot).imag
        assert sens.r[a, b] == dv_dp_entry(net, bi, phi, bj, psi)
        assert sens.x[a, b] == dv_dq_entry(net, bi, phi, bj, psi)


def guard_networks():
    yield fig_feeder()
    for seed in range(4):
        rng = np.random.default_rng(700 + seed)
        yield random_network(rng, int(rng.integers(8, 50)))
    yield generate(FeederSpec(n_buses=400, seed=1, phase_drop=0.4)).net
    yield long_chain(3000)


@pytest.mark.parametrize(
    "net", guard_networks(), ids=["fig", "0", "1", "2", "3", "phase_drop", "chain3000"]
)
def test_linear_voltage_model_reads_no_dense_entry(net, monkeypatch):
    dense = build_sensitivity(net)
    rng = np.random.default_rng(3)
    n = dense.n
    p, q = rng.normal(size=n), rng.normal(size=n)
    want = dense.r @ p + dense.x @ q + dense.v_tilde
    refuse_dense_build(monkeypatch)
    sens = build_sensitivity(net)
    model = LinearVoltageModel(sens)
    v = model.voltages(p, q)
    tol = 1e-12 * (1.0 + np.max(np.abs(v - sens.v_tilde)))
    assert np.max(np.abs(v - want)) <= tol
    np.testing.assert_array_equal(voltage_linear(sens, p, q), v)
    np.testing.assert_array_equal(model.voltages(np.zeros(n), np.zeros(n)), sens.v_tilde)
    with pytest.raises(ValueError, match="shape"):
        model.voltages(np.zeros(n + 1), np.zeros(n + 1))


def lca_columns(net: Network) -> np.ndarray:
    """The LCA of every pair of DFS columns, from the subtree intervals alone.

    The ancestors of column t, shallowest first, are the columns c <= t
    whose interval [c, c + size) holds t: their starts increase and their
    ends do not. So column u lies in the intervals of the first min(a, b)
    of them, a the number that start at or before u and b the number that
    end after it, and the last of those is the LCA.
    """
    n = net.n_buses
    end = np.arange(n) + net.size[net.order]
    u = np.arange(n)
    table = np.empty((n, n), dtype=np.int32)
    for t in range(n):
        anc = np.flatnonzero(end[:t + 1] > t)
        inside = np.minimum(np.searchsorted(anc, u, side="right"), np.searchsorted(-end[anc], -u))
        table[t] = anc[inside - 1]
    return table


def lca_gather(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """R and X gathered at every pair's lowest common ancestor: the oracle.

    Each entry reads the rotated pair value of the pair's LCA column in
    lca_columns, with no row copied from another.
    """
    r_pairs, x_pairs = rotated_pairs(net.z_prefix[net.order]).reshape(2, -1)
    cols = net.tin[net.flat_bus_pos]
    ph = net.flat_phase
    k = 9 * lca_columns(net)[np.ix_(cols, cols)] + 3 * ph[:, None] + ph
    return r_pairs[k], x_pairs[k]


def star_feeder(n_buses: int, seed: int) -> Network:
    """Every bus hangs off the substation, on a random nonempty phase set."""
    rng = np.random.default_rng(seed)
    buses = [Bus(0, ("a", "b", "c"), None)]
    lines = []
    for bid in range(1, n_buses + 1):
        held = rng.random(3) < 0.6
        held[1] |= not held.any()
        z = rng.uniform(0, 1e-2, (3, 3)) + 1j * rng.uniform(-1e-2, 1e-2, (3, 3))
        z[~np.outer(held, held)] = 0
        buses.append(Bus(bid, tuple(p for p, h in zip("abc", held) if h), 0))
        lines.append(Line(0, bid, z))
    return Network(buses, lines)


def assert_matches_lca_gather(net: Network):
    sens = build_sensitivity(net)
    r, x = lca_gather(net)
    assert sens.r.shape == sens.x.shape == (net.n_flat, net.n_flat)
    assert sens.r.tobytes() == r.tobytes()
    assert sens.x.tobytes() == x.tobytes()


@pytest.mark.parametrize(
    "net",
    [*guard_networks(), star_feeder(40, seed=0), Network([Bus(0, ("a", "b", "c"), None)], [])],
    ids=["fig", "0", "1", "2", "3", "phase_drop", "chain3000", "star", "substation"],
)
def test_dense_build_is_bitwise_the_lca_gather(net):
    assert_matches_lca_gather(net)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_buses", [5, 30, 120, 300, 700])
def test_dense_build_is_bitwise_the_lca_gather_on_generated_feeders(n_buses, seed):
    assert_matches_lca_gather(generate(FeederSpec(n_buses, seed=seed)).net)


def test_dense_build_holds_no_full_size_temporaries():
    # A broom's one wide level must not hold a level-sized copy of its rows,
    # and a chain's entry lists, half of R's size in all, are built a few
    # levels at a time.
    for net in (
        generate(FeederSpec(n_buses=2000, seed=0)).net, broom_feeder(2198), long_chain(2000)
    ):
        sens = build_sensitivity(net)
        tracemalloc.start()
        try:
            r = sens.r  # the first read builds R and X
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * (r.nbytes + sens.x.nbytes)
        del sens, r


@pytest.mark.parametrize("seed", range(6))
def test_adjoint_sweep_is_the_transpose_of_the_voltage_map(seed):
    feeder = generate(FeederSpec(n_buses=40 + 20 * seed, seed=seed, phase_drop=0.3))
    net = feeder.net
    sens = build_sensitivity(net)
    rng = np.random.default_rng(seed)
    d, p, q = rng.normal(size=(3, net.n_flat))
    cols, forest = net.subforest(np.arange(net.n_flat))
    g = adjoint_sweep(forest, cols, d)
    assert g.shape == (2, net.n_flat) and g.dtype == np.float64
    g_p, g_q = g
    scale = 1.0 + np.max(np.abs(sens.r.T @ d)) + np.max(np.abs(sens.x.T @ d))
    assert np.max(np.abs(g_p - sens.r.T @ d)) <= 1e-12 * scale
    assert np.max(np.abs(g_q - sens.x.T @ d)) <= 1e-12 * scale
    # The adjoint identity d . (v(p, q) - v_tilde) = g_p . p + g_q . q.
    lhs = d @ (voltage_linear(sens, p, q) - sens.v_tilde)
    assert lhs == pytest.approx(g_p @ p + g_q @ q, rel=1e-12, abs=1e-12)


def test_adjoint_sweep_adds_the_values_at_a_repeated_cell():
    # A swept scope places child aggregates at anchor columns that other
    # children or remainder duals may also hold.
    net = generate(FeederSpec(n_buses=60, seed=2, phase_drop=0.3)).net
    rng = np.random.default_rng(5)
    again = rng.choice(net.n_flat, size=30)
    cols, forest = net.subforest(np.arange(net.n_flat))
    d, extra = rng.normal(size=net.n_flat), rng.normal(size=len(again))
    t = adjoint_sweep(forest, np.concatenate([cols, cols[again]]), np.concatenate([d, extra]))
    separate = adjoint_sweep(forest, cols, d) + adjoint_sweep(
        forest, cols, np.bincount(again, weights=extra, minlength=net.n_flat)
    )
    tol = 1e-12 * (1.0 + np.max(np.abs(separate)))
    assert np.max(np.abs(t[:, : net.n_flat] - separate)) <= tol
    np.testing.assert_array_equal(t[:, net.n_flat:], t[:, again])


def test_sensitivity_holds_only_the_network_and_v_tilde(monkeypatch, dense_builds):
    # R and X are no fields: they are built together on the first read of
    # either, once, and cannot be replaced.
    net = generate(FeederSpec(n_buses=50, seed=1, phase_drop=0.3)).net
    assert [f.name for f in dataclasses.fields(SensitivityMatrices)] == ["v_tilde", "net"]
    dense = build_sensitivity(net)
    want = dense.r.copy(), dense.x.copy()
    p, q = np.random.default_rng(2).normal(size=(2, net.n_flat))
    with monkeypatch.context() as patch:
        refuse_dense_build(patch)
        sens = build_sensitivity(net)
        assert sens.net is net
        np.testing.assert_array_equal(sens.v_tilde, np.full(net.n_flat, net.base_v_squared))
        np.testing.assert_array_equal(voltage_linear(sens, p, q), voltage_linear(dense, p, q))
        with pytest.raises(AssertionError, match="dense sensitivities"):
            sens.x
    assert dense_builds == [net]
    r, x = sens.r, sens.x
    assert dense_builds == [net, net]
    assert r.tobytes() == want[0].tobytes() and x.tobytes() == want[1].tobytes()
    assert np.shares_memory(r, sens.r) and np.shares_memory(x, sens.x)
    assert dense_builds == [net, net]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sens.r = want[0]
