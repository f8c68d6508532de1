"""Backward/forward sweep power flow and model comparison."""

from __future__ import annotations

import numpy as np
import pytest

from mlopf.network import Bus, Line, Network, load_network
from mlopf.powerflow import SweepError, backward_forward_sweep, compare_models
from mlopf.sensitivity import OMEGA, build_sensitivity, voltage_linear
from mlopf.feedergen import FeederSpec, generate
from mlopf.opf import make_problem

from conftest import chain_doc, long_chain, random_network


def single_line_net(r=0.01, x=0.02):
    return load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [r, x]}}],
        }
    )


def closed_form_single_line(r, x, p_load, q_load, v0sq=1.0):
    """High-voltage root of the exact single-line power flow quadratic."""
    b = 2 * (r * p_load + x * q_load) - v0sq
    c = (r * r + x * x) * (p_load**2 + q_load**2)
    return (-b + np.sqrt(b * b - 4 * c)) / 2


def test_no_load_gives_flat_profile_in_one_sweep():
    net = load_network(chain_doc())
    sol = backward_forward_sweep(net, np.zeros(2), np.zeros(2))
    assert sol.iterations == 1
    assert sol.max_mismatch == 0.0
    np.testing.assert_allclose(sol.v, 1.0, atol=1e-15)
    np.testing.assert_allclose(np.abs(sol.phasors), 1.0, atol=1e-15)


def test_substation_phase_angles_are_rotated():
    net = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a", "b", "c"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {}}],
        }
    )
    sol = backward_forward_sweep(net, np.zeros(3), np.zeros(3))
    angles = np.angle(sol.phasors, deg=True)
    np.testing.assert_allclose(angles, [0.0, -120.0, 120.0], atol=1e-9)


@pytest.mark.parametrize(
    "p_load,q_load", [(1.0, 0.0), (0.5, 0.3), (0.2, -0.1), (1.5, 0.8)]
)
def test_single_line_matches_closed_form(p_load, q_load):
    r, x = 0.01, 0.02
    net = single_line_net(r, x)
    sol = backward_forward_sweep(
        net, np.array([-p_load]), np.array([-q_load]), tol=1e-12
    )
    expected = closed_form_single_line(r, x, p_load, q_load)
    assert sol.v[0] == pytest.approx(expected, abs=1e-10)


def test_generation_raises_voltage():
    net = single_line_net()
    sol = backward_forward_sweep(net, np.array([0.5]), np.array([0.0]), tol=1e-12)
    assert sol.v[0] > 1.0


def test_light_load_matches_linear_model():
    feeder = generate(FeederSpec(n_buses=30, seed=5))
    sens = build_sensitivity(feeder.net)
    rng = np.random.default_rng(1)
    n = feeder.net.n_flat
    p = rng.uniform(-0.01, 0.01, n)
    q = rng.uniform(-0.01, 0.01, n)
    div = compare_models(feeder.net, sens, p, q)
    assert div.max_abs < 0.005 * feeder.net.base_v_squared


def test_power_balance_at_convergence():
    feeder = generate(FeederSpec(n_buses=60, seed=9, load_scale=1.5))
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    sol = backward_forward_sweep(feeder.net, prob.p0, prob.q0, tol=1e-8)
    assert sol.max_mismatch < 1e-8


def test_lossless_limit_drives_models_together():
    feeder = generate(FeederSpec(n_buses=40, seed=3, load_scale=1.5))
    base_doc = None
    errors = []
    for alpha in (1.0, 0.1, 0.01):
        buses = feeder.net.buses
        lines = [
            Line(ln.from_bus, ln.to_bus, ln.z * alpha) for ln in feeder.net.lines
        ]
        net = Network(buses, lines)
        sens = build_sensitivity(net)
        prob = make_problem(net, sens, list(feeder.devices), feeder.background)
        div = compare_models(net, sens, prob.p0, prob.q0)
        errors.append(div.max_abs)
    assert errors[0] > errors[1] > errors[2]
    del base_doc


def test_sweep_is_bitwise_deterministic():
    feeder = generate(FeederSpec(n_buses=50, seed=2, load_scale=1.8))
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    s1 = backward_forward_sweep(feeder.net, prob.p0, prob.q0)
    s2 = backward_forward_sweep(feeder.net, prob.p0, prob.q0)
    np.testing.assert_array_equal(s1.phasors, s2.phasors)
    np.testing.assert_array_equal(s1.v, s2.v)
    assert s1.iterations == s2.iterations


def test_squared_magnitudes_match_phasors():
    feeder = generate(FeederSpec(n_buses=40, seed=7, load_scale=1.5))
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    sol = backward_forward_sweep(feeder.net, prob.p0, prob.q0)
    np.testing.assert_allclose(sol.v, np.abs(sol.phasors) ** 2, atol=1e-14)


def test_excessive_loading_raises_sweep_error():
    net = single_line_net()
    with pytest.raises(SweepError):
        backward_forward_sweep(net, np.array([-60.0]), np.array([-30.0]))


def test_injection_dimension_check():
    net = single_line_net()
    with pytest.raises(ValueError, match="shape"):
        backward_forward_sweep(net, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        backward_forward_sweep(net, np.array([np.nan]), np.zeros(1))


def test_compare_models_zero_injections():
    rng = np.random.default_rng(0)
    net = random_network(rng, 25)
    sens = build_sensitivity(net)
    n = net.n_flat
    div = compare_models(net, sens, np.zeros(n), np.zeros(n))
    assert div.max_abs <= 1e-12


def test_divergence_grows_with_load_scale():
    feeder = generate(FeederSpec(n_buses=60, seed=4, load_scale=2.0))
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    gaps = []
    for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
        div = compare_models(feeder.net, sens, frac * prob.p0, frac * prob.q0)
        gaps.append(div.max_abs)
    assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_multiphase_coupled_lines_flow():
    # A three-phase line with mutual coupling still solves and leaves the
    # unloaded phases near their reference magnitudes.
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
                        "ab": [0.003, 0.006], "ba": [0.003, 0.006],
                        "bc": [0.003, 0.006], "cb": [0.003, 0.006],
                        "ac": [0.003, 0.006], "ca": [0.003, 0.006],
                    },
                }
            ],
        }
    )
    p = np.array([-0.8, 0.0, 0.0])
    q = np.array([-0.4, 0.0, 0.0])
    sol = backward_forward_sweep(net, p, q, tol=1e-10)
    assert sol.v[0] < 1.0
    assert abs(sol.v[1] - 1.0) < 0.05 and abs(sol.v[2] - 1.0) < 0.05
    assert sol.max_mismatch < 1e-10


def per_level_sweep(net, p, q, tol=1e-8, max_sweeps=100):
    """Reference sweep: one pass per tree level in each direction.

    Returns (phasors, v, iterations), or None where the reference does not
    converge.
    """
    n = net.n_buses
    s = np.zeros((n, 3), dtype=np.complex128)
    s[net.flat_bus_pos, net.flat_phase] = p + 1j * q
    mask = net.phase_mask.copy()
    mask[net.bus_pos(0)] = False
    ref = np.sqrt(net.base_v_squared) * np.array([1.0, OMEGA, OMEGA * OMEGA])
    volt = np.tile(ref, (n, 1))
    max_depth = int(net.depth.max())
    levels = [np.flatnonzero(net.depth == dep) for dep in range(max_depth + 1)]
    parent = net.parent_pos
    nonroot = np.flatnonzero(parent >= 0)
    for sweep in range(1, max_sweeps + 1):
        inj = np.zeros((n, 3), dtype=np.complex128)
        inj[mask] = np.conj(s[mask] / volt[mask])
        branch = -inj
        for dep in range(max_depth, 0, -1):
            kids = levels[dep]
            np.add.at(branch, parent[kids], branch[kids])
        for dep in range(1, max_depth + 1):
            kids = levels[dep]
            drop = np.einsum("nij,nj->ni", net.z_line[kids], branch[kids])
            volt[kids] = volt[parent[kids]] - drop
        child_sum = np.zeros((n, 3), dtype=np.complex128)
        np.add.at(child_sum, parent[nonroot], branch[nonroot])
        implied = volt * np.conj(child_sum - branch)
        if np.max(np.abs(implied[mask] - s[mask]), initial=0.0) < tol:
            phasors = volt[net.flat_bus_pos, net.flat_phase]
            return phasors, np.abs(phasors) ** 2, sweep
    return None


def sweep_cases():
    feeder = generate(FeederSpec(n_buses=300, seed=0, load_scale=1.8))
    problem = make_problem(feeder.net, None, list(feeder.devices), feeder.background)
    yield "undervoltage", feeder.net, problem.p0, problem.q0
    rng = np.random.default_rng(20)
    net = random_network(rng, 120, mutual="complex", symmetric=False)  # 254 indices
    yield "coupled", net, rng.uniform(-0.01, 0.002, net.n_flat), rng.uniform(-0.005, 0.002, net.n_flat)
    chain = long_chain(3000)
    yield "chain3000", chain, np.full(chain.n_flat, -1e-4), np.full(chain.n_flat, -5e-5)


@pytest.mark.parametrize("net,p,q", [case[1:] for case in sweep_cases()],
                         ids=["undervoltage", "coupled", "chain3000"])
def test_tree_sweep_matches_per_level_reference(net, p, q):
    want = per_level_sweep(net, p, q)
    assert want is not None
    phasors, v, iterations = want
    sol = backward_forward_sweep(net, p, q)
    assert sol.iterations == iterations
    assert np.max(np.abs(sol.phasors - phasors)) <= 1e-12
    assert np.max(np.abs(sol.v - v)) <= 1e-12


def flat_profile(net):
    ref = np.sqrt(net.base_v_squared) * np.array([1.0, OMEGA, OMEGA * OMEGA])
    return ref[net.flat_phase]


CASE_IDS = ["undervoltage", "coupled", "chain3000"]


@pytest.mark.parametrize("net,p,q", [case[1:] for case in sweep_cases()], ids=CASE_IDS)
def test_start_at_the_flat_profile_is_the_flat_start(net, p, q):
    cold = backward_forward_sweep(net, p, q)
    given = backward_forward_sweep(net, p, q, start=flat_profile(net))
    np.testing.assert_array_equal(given.phasors, cold.phasors)
    assert given.iterations == cold.iterations
    assert given.max_mismatch == cold.max_mismatch


@pytest.mark.parametrize("net,p,q", [case[1:] for case in sweep_cases()], ids=CASE_IDS)
def test_start_at_its_own_solution_returns_after_one_sweep(net, p, q):
    tol = 1e-8
    sol = backward_forward_sweep(net, p, q, tol=tol)
    again = backward_forward_sweep(net, p, q, tol=tol, start=sol.phasors)
    assert again.iterations == 1
    assert again.max_mismatch < tol


@pytest.mark.parametrize("net,p,q", [case[1:] for case in sweep_cases()], ids=CASE_IDS)
def test_start_at_a_neighbour_solution_agrees_with_a_tight_flat_solve(net, p, q):
    # The neighbour's injections differ by up to 1% per index.
    rng = np.random.default_rng(5)
    jitter = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, (2, net.n_flat))
    start = backward_forward_sweep(net, p * jitter[0], q * jitter[1]).phasors
    exact = backward_forward_sweep(net, p, q, tol=1e-12)
    for tol in (1e-8, 1e-12):
        warm = backward_forward_sweep(net, p, q, tol=tol, start=start)
        cold = backward_forward_sweep(net, p, q, tol=tol)
        assert warm.max_mismatch < tol
        assert warm.iterations <= cold.iterations
    # The stopping test bounds the power mismatch, not the voltage error,
    # so the tight solve is the one held to the flat start's answer.
    assert np.max(np.abs(warm.v - exact.v)) <= 1e-9


def test_start_shape_and_finiteness_checked():
    net = single_line_net()
    p, q = np.array([-0.5]), np.array([-0.2])
    with pytest.raises(ValueError, match="shape"):
        backward_forward_sweep(net, p, q, start=np.ones(2, dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        backward_forward_sweep(net, p, q, start=np.ones((1, 1), dtype=complex))
    for bad in (np.nan, np.inf, complex(1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            backward_forward_sweep(net, p, q, start=np.array([bad], dtype=complex))


def test_a_zero_start_phasor_is_a_singular_operating_point():
    net = load_network(chain_doc())
    start = np.ones(net.n_flat, dtype=np.complex128)
    start[1] = 0.0
    with pytest.raises(SweepError, match="^zero voltage encountered; operating point is singular$"):
        backward_forward_sweep(net, np.zeros(net.n_flat), np.zeros(net.n_flat), start=start)
