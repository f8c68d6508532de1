"""Problem data, cost, projection, dual updates, Lagrangian, residuals."""

from __future__ import annotations

import numpy as np
import pytest

from mlopf.network import load_network
from mlopf.opf import (
    Device,
    DualState,
    ProblemError,
    SolverConfig,
    VoltageBounds,
    dual_update,
    lagrangian_value,
    load_problem,
    make_problem,
    primal_step,
    saddle_residual,
)
from mlopf.sensitivity import build_sensitivity

from conftest import chain_doc, two_bus_net


def make_dev(**kw) -> Device:
    base = dict(
        bus=1, phase="a", p0=0.0, q0=0.0,
        p_min=-1.0, p_max=1.0, q_min=-1.0, q_max=1.0,
    )
    base.update(kw)
    return Device(**base)


# One flat index, (1, a), for a device built by make_dev.
ONE_INDEX_NET = load_network({
    "buses": [
        {"id": 0, "phases": ["a", "b", "c"], "parent": None},
        {"id": 1, "phases": ["a"], "parent": 0},
    ],
    "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
})


# A power of two, so the gradient read back from one primal step loses
# only the step's own rounding.
GRADIENT_PROBE = SolverConfig(step_primal=2.0 ** -20)


def device_cost(dev: Device, p: float, q: float) -> tuple[float, float, float]:
    """Deviation cost and its gradient for a single device, through a Problem holding only it.

    The gradient is read from primal_step without coupling terms: strictly
    inside the box, one step moves z by step_primal times the gradient.
    """
    prob = make_problem(ONE_INDEX_NET, None, [dev])
    z = np.array([p, q])
    dp, dq = (z - primal_step(prob, z, 0.0, GRADIENT_PROBE)) / GRADIENT_PROBE.step_primal
    return prob.objective(z[:1], z[1:]), float(dp), float(dq)


def clamp(prob, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The box projection, through primal_step.

    g = -2 w (z - z0) cancels the cost gradient exactly, so the step leaves
    z where it is and only the clamp acts.
    """
    z = np.concatenate([p, q])
    out = primal_step(prob, z, -2.0 * prob.w * (z - prob.z0), SolverConfig())
    return out[:prob.n], out[prob.n:]


def test_cost_zero_at_preference():
    assert device_cost(make_dev(), 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_cost_hand_values():
    cost, dp, dq = device_cost(make_dev(), 0.1, -0.2)
    assert cost == pytest.approx(0.05)
    assert dp == pytest.approx(0.2)
    assert dq == pytest.approx(-0.4)


def test_cost_weight_scaling():
    dev1 = make_dev(w_p=1.0)
    dev2 = make_dev(w_p=2.0)
    c1, dp1, dq1 = device_cost(dev1, 0.3, 0.1)
    c2, dp2, dq2 = device_cost(dev2, 0.3, 0.1)
    assert dp2 == pytest.approx(2 * dp1)
    assert dq2 == dq1
    assert c2 - c1 == pytest.approx(dev1.w_p * 0.3**2)


def test_cost_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(30):
        dev = make_dev(
            p0=rng.uniform(-0.5, 0.5), q0=rng.uniform(-0.5, 0.5),
            w_p=rng.uniform(0.5, 3), w_q=rng.uniform(0.5, 3),
        )
        p, q = rng.uniform(-1, 1), rng.uniform(-1, 1)
        _, dp, dq = device_cost(dev, p, q)
        fd_p = (device_cost(dev, p + h, q)[0] - device_cost(dev, p - h, q)[0]) / (2 * h)
        fd_q = (device_cost(dev, p, q + h)[0] - device_cost(dev, p, q - h)[0]) / (2 * h)
        assert dp == pytest.approx(fd_p, rel=1e-7, abs=1e-9)
        assert dq == pytest.approx(fd_q, rel=1e-7, abs=1e-9)


def test_projection_clamps_and_is_idempotent():
    # Three devices with the same box on a three-phase bus: one hand value
    # per device, then the idempotence loop on every index at once.
    net = load_network({
        "buses": [
            {"id": 0, "phases": ["a", "b", "c"], "parent": None},
            {"id": 1, "phases": ["a", "b", "c"], "parent": 0},
        ],
        "lines": [{"from": 0, "to": 1, "z": {ph + ph: [0.01, 0.02] for ph in "abc"}}],
    })
    prob = make_problem(net, build_sensitivity(net), [make_dev(phase=ph) for ph in "abc"])
    p, q = clamp(prob, np.array([0.5, 2.0, 0.0]), np.array([-0.5, 0.0, -5.0]))
    assert p.tolist() == [0.5, 1.0, 0.0]
    assert q.tolist() == [-0.5, 0.0, -1.0]
    rng = np.random.default_rng(1)
    for _ in range(50):
        once = clamp(prob, rng.uniform(-3, 3, size=3), rng.uniform(-3, 3, size=3))
        twice = clamp(prob, *once)
        np.testing.assert_array_equal(twice[0], once[0])
        np.testing.assert_array_equal(twice[1], once[1])


def test_device_invariants_enforced():
    with pytest.raises(ProblemError, match="preference outside"):
        make_dev(p0=2.0)
    with pytest.raises(ProblemError, match="bounded"):
        make_dev(p_max=np.inf)
    with pytest.raises(ProblemError, match="empty box"):
        make_dev(q_min=1.0, q_max=-1.0)
    for weight in ({"w_p": 0.0}, {"w_p": np.nan}, {"w_q": np.nan}, {"w_q": np.inf}):
        with pytest.raises(ProblemError, match="weights"):
            make_dev(**weight)


def test_bounds_invariants():
    with pytest.raises(ProblemError):
        VoltageBounds(v_lower=np.array([1.1]), v_upper=np.array([1.0]))
    with pytest.raises(ProblemError):
        VoltageBounds(v_lower=np.array([0.0]), v_upper=np.array([1.0]))
    vb = VoltageBounds.from_magnitudes(2, 0.95, 1.05)
    np.testing.assert_allclose(vb.v_lower, 0.95**2)
    np.testing.assert_allclose(vb.v_upper, 1.05**2)


@pytest.mark.parametrize("lower, upper", [
    (np.nan, 1.1), (0.9, np.nan), (0.9, np.inf), (-np.inf, 1.1), (np.inf, np.inf),
])
def test_bounds_reject_non_finite_entries(lower, upper):
    # Every comparison with a NaN is False, so the checks must ask for what
    # holds, not for what fails; an infinite upper bound once let a solve
    # record a NaN Lagrangian (0 * -inf) and stop as converged.
    with pytest.raises(ProblemError, match="< inf"):
        VoltageBounds(v_lower=np.array([0.9, lower]), v_upper=np.array([1.1, upper]))


def test_dual_update_zero_drift_at_lower_bound():
    # v exactly at the lower bound with eta 0 would leave the dual fixed;
    # eta must be positive, so emulate with a tiny eta and a zero dual.
    state = DualState(mu_upper=np.zeros(1), mu_lower=np.array([0.4]))
    bounds = VoltageBounds(v_lower=np.array([0.9025]), v_upper=np.array([1.1025]))
    cfg = SolverConfig(step_dual=3.5e-3, eta=1e-12)
    nxt = dual_update(state, np.array([0.9025]), bounds, cfg)
    assert nxt.mu_lower[0] == pytest.approx(0.4, abs=1e-12)


def test_dual_update_hand_value():
    state = DualState(mu_upper=np.array([0.1]), mu_lower=np.zeros(1))
    bounds = VoltageBounds(v_lower=np.array([0.9025]), v_upper=np.array([1.1025]))
    cfg = SolverConfig(step_dual=3.5e-3, eta=1e-4)
    nxt = dual_update(state, np.array([1.11]), bounds, cfg)
    expected = 0.1 + 3.5e-3 * ((1.11 - 1.1025) - 1e-4 * 0.1)
    assert nxt.mu_upper[0] == pytest.approx(expected, rel=1e-12)
    assert nxt.mu_upper[0] == pytest.approx(0.100026215, rel=1e-9)


def test_dual_update_clamps_at_zero():
    state = DualState(mu_upper=np.zeros(1), mu_lower=np.zeros(1))
    bounds = VoltageBounds(v_lower=np.array([0.9025]), v_upper=np.array([1.1025]))
    cfg = SolverConfig(step_dual=0.1, eta=1e-4)
    nxt = dual_update(state, np.array([1.0]), bounds, cfg)
    assert nxt.mu_upper[0] == 0.0
    assert nxt.mu_lower[0] == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_dual_update_preserves_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    n = 8
    state = DualState(mu_upper=rng.uniform(0, 5, n), mu_lower=rng.uniform(0, 5, n))
    bounds = VoltageBounds.from_magnitudes(n, 0.95, 1.05)
    cfg = SolverConfig(step_dual=float(rng.uniform(1e-4, 10.0)), eta=1e-4)
    nxt = dual_update(state, rng.uniform(0.5, 1.5, n), bounds, cfg)
    assert np.all(nxt.mu_upper >= 0)
    assert np.all(nxt.mu_lower >= 0)
    # The update skips the constructor's sign check; its result is still a DualState.
    assert isinstance(nxt, DualState)


@pytest.mark.parametrize("which", ["mu_upper", "mu_lower"])
def test_dual_state_built_by_hand_rejects_a_negative_entry(which):
    duals = {"mu_upper": np.zeros(3), "mu_lower": np.zeros(3)}
    duals[which] = np.array([0.0, -1e-300, 2.0])
    with pytest.raises(ProblemError, match="nonnegative"):
        DualState(**duals)


@pytest.mark.parametrize("which", ["mu_upper", "mu_lower"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dual_state_built_by_hand_rejects_a_non_finite_entry(which, bad):
    duals = {"mu_upper": np.zeros(3), "mu_lower": np.zeros(3)}
    duals[which] = np.array([0.0, bad, 2.0])
    with pytest.raises(ProblemError, match="finite"):
        DualState(**duals)


def simple_problem():
    net = load_network(chain_doc())
    sens = build_sensitivity(net)
    devices = [
        Device(bus=1, phase="a", p0=0.1, q0=0.0,
               p_min=-1, p_max=1, q_min=-1, q_max=1),
        Device(bus=2, phase="a", p0=-0.2, q0=0.05,
               p_min=-1, p_max=1, q_min=-1, q_max=1, w_p=2.0),
    ]
    return make_problem(net, sens, devices)


def test_lagrangian_reduces_to_cost_at_zero_duals():
    prob = simple_problem()
    rng = np.random.default_rng(0)
    p, q = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    sens = build_sensitivity(prob.net)
    v = sens.r @ p + sens.x @ q + sens.v_tilde
    val = lagrangian_value(prob, p, q, np.zeros(2), np.zeros(2), v, eta=1e-4)
    assert val == pytest.approx(prob.objective(p, q))


def test_lagrangian_zero_at_preference_with_zero_duals():
    prob = simple_problem()
    sens = build_sensitivity(prob.net)
    v = sens.r @ prob.p0 + sens.x @ prob.q0 + sens.v_tilde
    assert lagrangian_value(
        prob, prob.p0, prob.q0, np.zeros(2), np.zeros(2), v, eta=1e-4
    ) == 0.0


def test_lagrangian_term_by_term_oracle():
    prob = simple_problem()
    rng = np.random.default_rng(9)
    p, q = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    mu_up, mu_lo = rng.uniform(0, 2, 2), rng.uniform(0, 2, 2)
    v = rng.uniform(0.8, 1.2, 2)
    eta = 1e-3
    expected = 0.0
    for idx, dev in zip(prob.device_index, prob.devices):
        expected += dev.w_p * (p[idx] - dev.p0) ** 2 + dev.w_q * (q[idx] - dev.q0) ** 2
    for i in range(2):
        expected += mu_lo[i] * (prob.bounds.v_lower[i] - v[i])
        expected += mu_up[i] * (v[i] - prob.bounds.v_upper[i])
        expected -= 0.5 * eta * (mu_up[i] ** 2 + mu_lo[i] ** 2)
    got = lagrangian_value(prob, p, q, mu_up, mu_lo, v, eta)
    assert got == pytest.approx(expected, rel=1e-12)


def test_lagrangian_strictly_concave_along_dual_ray():
    prob = simple_problem()
    rng = np.random.default_rng(4)
    p, q = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    v = rng.uniform(0.8, 1.2, 2)
    mu_up, mu_lo = rng.uniform(0.1, 1, 2), rng.uniform(0.1, 1, 2)

    def along(t):
        return lagrangian_value(
            prob, p, q, (1 + t) * mu_up, (1 + t) * mu_lo, v, eta=1e-2
        )

    for t1, t2 in ((-0.5, 0.5), (0.0, 1.0), (-0.2, 0.8)):
        mid = 0.5 * (t1 + t2)
        assert along(mid) > 0.5 * (along(t1) + along(t2)) + 1e-12


def constructed_fixed_point():
    """Closed-form saddle point of the one-device overvoltage problem.

    The device prefers a large injection; at the optimum the upper bound
    binds and every stationarity condition is solved by hand from
       p = p0 - R mu / (2 w_p),     q = q0 - X mu / (2 w_q),
       v = R p + X q + v_tilde,     mu = (v - v_upper) / eta.
    """
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
    r, x = sens.r[0, 0], sens.x[0, 0]
    w_p, w_q, eta = 1.0, 1.0, 1e-3
    p0, q0 = 5.0, 2.0
    dev = Device(bus=1, phase="a", p0=p0, q0=q0,
                 p_min=-10, p_max=10, q_min=-10, q_max=10)
    prob = make_problem(net, sens, [dev])
    v_up = prob.bounds.v_upper[0]
    mu = (r * p0 + x * q0 + sens.v_tilde[0] - v_up) / (
        eta + r * r / (2 * w_p) + x * x / (2 * w_q)
    )
    assert mu > 0
    p = p0 - r * mu / (2 * w_p)
    q = q0 - x * mu / (2 * w_q)
    v = r * p + x * q + sens.v_tilde[0]
    return prob, np.array([p]), np.array([q]), np.array([mu]), np.array([v]), eta


def coupling_terms(prob, duals):
    d = duals.mu_upper - duals.mu_lower
    sens = build_sensitivity(prob.net)
    return sens.r.T @ d, sens.x.T @ d


def test_residual_zero_at_constructed_saddle_point():
    prob, p, q, mu, v, eta = constructed_fixed_point()
    cfg = SolverConfig(step_primal=1e-3, step_dual=1e-2, eta=eta)
    duals = DualState(mu_upper=mu, mu_lower=np.zeros(1))
    res = saddle_residual(prob, p, q, duals, v, cfg, *coupling_terms(prob, duals))
    assert res < 1e-9


def test_residual_is_pure():
    prob, p, q, mu, v, eta = constructed_fixed_point()
    cfg = SolverConfig(step_primal=1e-3, step_dual=1e-2, eta=eta)
    duals = DualState(mu_upper=mu * 1.5, mu_lower=np.zeros(1))
    g_p, g_q = coupling_terms(prob, duals)
    first = saddle_residual(prob, p, q, duals, v, cfg, g_p, g_q)
    second = saddle_residual(prob, p, q, duals, v, cfg, g_p, g_q)
    assert first == second
    assert first > 0


def test_residual_clamps_a_state_outside_the_box_on_both_halves():
    # Box [-10, 10] on both halves; p is 1 above it and q 2 below it. With
    # zero duals and v inside its bounds only the primal half moves: each
    # half is clamped back to its bound, and the larger distance, q's, is
    # the residual.
    prob, _, _, _, v, eta = constructed_fixed_point()
    cfg = SolverConfig(step_primal=1e-3, step_dual=1e-2, eta=eta)
    duals = DualState(mu_upper=np.zeros(1), mu_lower=np.zeros(1))
    p, q = np.array([11.0]), np.array([-12.0])
    g_p, g_q = coupling_terms(prob, duals)
    np.testing.assert_array_equal(
        primal_step(prob, np.concatenate([p, q]), np.concatenate([g_p, g_q]), cfg), [10.0, -10.0]
    )
    v = np.minimum(v, prob.bounds.v_upper)
    assert saddle_residual(prob, p, q, duals, v, cfg, g_p, g_q) == 2.0 / cfg.step_primal


def test_dual_cap_at_fixed_points():
    # At any dual fixed point, mu_upper is the violation over eta, so the
    # infinity norms obey the cap exactly.
    prob, p, q, mu, v, eta = constructed_fixed_point()
    violation = float(v[0] - prob.bounds.v_upper[0])
    assert mu[0] <= violation / eta + 1e-12


@pytest.mark.parametrize("name", ["step_primal", "step_dual", "eta", "residual_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_a_non_finite_value(name, value):
    with pytest.raises(ProblemError, match=name):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("injection", [(float("nan"), 0.0), (-0.1, float("inf"))])
def test_make_problem_rejects_a_non_finite_background_injection(two_bus_net, injection):
    with pytest.raises(ProblemError, match="non-finite background injection at 1:a"):
        make_problem(two_bus_net, None, [], {(1, "a"): injection})


def test_make_problem_rejects_conflicts(two_bus_net):
    sens = build_sensitivity(two_bus_net)
    dev = Device(bus=1, phase="a", p0=0, q0=0,
                 p_min=-1, p_max=1, q_min=-1, q_max=1)
    with pytest.raises(ProblemError, match="two devices"):
        make_problem(two_bus_net, sens, [dev, dev])
    with pytest.raises(ProblemError, match="both a device and a background"):
        make_problem(two_bus_net, sens, [dev], {(1, "a"): (0.1, 0.0)})


def test_problem_document_round_trip(two_bus_net):
    sens = build_sensitivity(two_bus_net)
    doc = {
        "devices": [
            {"bus": 1, "phase": "a", "p0": 0.1, "q0": 0.0,
             "pmin": -1, "pmax": 1, "qmin": -1, "qmax": 1, "wp": 2.0, "wq": 1.0}
        ],
        "background": [],
        "vmin": 0.9,
        "vmax": 1.1,
    }
    prob = load_problem(doc, two_bus_net, sens)
    assert prob.devices[0].w_p == 2.0
    np.testing.assert_allclose(prob.bounds.v_upper, 1.1**2)
    assert prob.p0[0] == 0.1


def test_background_fills_fixed_indices():
    net = load_network(chain_doc())
    sens = build_sensitivity(net)
    prob = make_problem(net, sens, [], {(2, "a"): (-0.3, -0.1)})
    assert prob.p0[1] == -0.3
    assert prob.p_min[1] == prob.p_max[1] == -0.3
    # Fixed indices stay pinned under projection.
    p, q = clamp(prob, np.array([9.0, 9.0]), np.array([-9.0, -9.0]))
    assert p[1] == -0.3 and q[1] == -0.1


@pytest.mark.parametrize("fields, message", [
    ({"step_primal": 0.0}, "stepsizes and eta must be positive"),
    ({"step_dual": -1e-3}, "stepsizes and eta must be positive"),
    ({"eta": 0.0}, "stepsizes and eta must be positive"),
    ({"max_iters": -1}, "max_iters must be nonnegative"),
    ({"residual_tol": -1e-6}, "residual_tol must be nonnegative"),
], ids=["step_primal-0", "step_dual-negative", "eta-0", "max_iters-negative", "residual_tol-negative"])
def test_solver_config_rejects_an_out_of_range_value(fields, message):
    with pytest.raises(ProblemError) as caught:
        SolverConfig(**fields)
    assert str(caught.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
    ({"max_iters": 3.0}, "max_iters must be an integer, got 3.0"),
    ({"max_iters": True}, "max_iters must be an integer, got True"),
    ({"step_primal": True}, "step_primal must be a finite number, got True"),
    ({"step_dual": np.True_}, f"step_dual must be a finite number, got {np.True_!r}"),
    ({"residual_tol": True}, "residual_tol must be a finite number, got True"),
], ids=["max_iters-fraction", "max_iters-float", "max_iters-bool", "step_primal-bool",
        "step_dual-numpy-bool", "residual_tol-bool"])
def test_solver_config_rejects_fractional_and_bool_values(fields, message):
    with pytest.raises(ProblemError) as caught:
        SolverConfig(**fields)
    assert str(caught.value) == message


def test_solver_config_takes_numpy_numbers():
    cfg = SolverConfig(max_iters=np.int64(7), step_primal=np.float64(1e-3), residual_tol=0)
    assert cfg.max_iters == 7


def test_voltage_bounds_reject_mismatched_shapes():
    with pytest.raises(ProblemError, match="^bound vectors must have matching shapes$"):
        VoltageBounds(np.full(2, 0.9), np.full(3, 1.1))


def test_dual_update_rejects_a_voltage_vector_of_the_wrong_length():
    duals = DualState(np.zeros(2), np.zeros(2))
    bounds = VoltageBounds.from_magnitudes(2, 0.95, 1.05)
    with pytest.raises(ProblemError, match="^voltage vector shape does not match the duals$"):
        dual_update(duals, np.ones(3), bounds, SolverConfig())


def test_lagrangian_value_rejects_mismatched_lengths(two_bus_net):
    prob = make_problem(two_bus_net, None, [])
    one, two = np.ones(1), np.ones(2)
    with pytest.raises(ProblemError, match="^dimension mismatch in Lagrangian evaluation$"):
        lagrangian_value(prob, one, one, one, one, two, 1e-4)
