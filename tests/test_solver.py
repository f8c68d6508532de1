"""Primal-dual iteration: steps, traces, determinism, fixed points."""

from __future__ import annotations

import numpy as np
import pytest

from mlopf import opf, solver
from mlopf.coupling import FlatEngine, MultilevelEngine
from mlopf.network import load_network
from mlopf.opf import (
    Device,
    DualState,
    ProblemError,
    SolverConfig,
    lagrangian_value,
    make_problem,
    saddle_residual,
)
from mlopf.partition import auto_partition
from mlopf.powerflow import backward_forward_sweep
from mlopf.sensitivity import build_sensitivity
from mlopf.solver import (
    LinearVoltageModel,
    SolverError,
    SolverState,
    SweepVoltageModel,
    TRACE_COLUMNS,
    Trace,
    TraceRecord,
    initial_state,
    run,
    step,
)
from mlopf.feedergen import FeederSpec, generate

from conftest import chain_doc


def tiny_problem(p0=0.1, q0=-0.05, v_min=0.95, v_max=1.05):
    net = load_network(chain_doc())
    sens = build_sensitivity(net)
    devices = [
        Device(bus=1, phase="a", p0=p0, q0=q0,
               p_min=-1, p_max=1, q_min=-1, q_max=1),
    ]
    prob = make_problem(net, sens, devices, {(2, "a"): (-0.2, -0.1)},
                        v_min=v_min, v_max=v_max)
    return net, sens, prob


def test_zero_dual_preferred_start_is_a_primal_fixed_point():
    net, sens, prob = tiny_problem(v_min=0.5, v_max=1.5)
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(max_iters=5)
    state = initial_state(prob, vmodel)
    nxt = step(state, prob, FlatEngine(sens), vmodel, cfg)
    np.testing.assert_array_equal(nxt.p, state.p)
    np.testing.assert_array_equal(nxt.q, state.q)
    np.testing.assert_array_equal(nxt.duals.mu_upper, state.duals.mu_upper)
    assert nxt.iteration == 1


def test_single_device_step_matches_hand_formula():
    net, sens, prob = tiny_problem()
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(step_primal=1e-3, step_dual=1e-2, eta=1e-4, max_iters=1)
    mu_up = np.array([0.3, 0.1])
    mu_lo = np.array([0.0, 0.2])
    state = initial_state(prob, vmodel)
    state = type(state)(
        p=state.p, q=state.q,
        duals=DualState(mu_upper=mu_up, mu_lower=mu_lo),
        v=state.v, iteration=0,
    )
    nxt = step(state, prob, FlatEngine(sens), vmodel, cfg)
    d = mu_up - mu_lo
    g_p = sens.r.T @ d
    expected_p0 = np.clip(
        state.p[0] - cfg.step_primal * (2.0 * (state.p[0] - 0.1) + g_p[0]), -1, 1
    )
    assert nxt.p[0] == pytest.approx(expected_p0, rel=1e-15)
    # The fixed background index stays pinned by its singleton box.
    assert nxt.p[1] == -0.2


def test_engines_agree_after_one_step():
    feeder = generate(FeederSpec(n_buses=40, seed=2), target_area_size=10,
                      target_subarea_size=4)
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(max_iters=1)
    init = initial_state(prob, vmodel)
    rng = np.random.default_rng(0)
    duals = DualState(
        mu_upper=rng.uniform(0, 1, prob.n), mu_lower=rng.uniform(0, 1, prob.n)
    )
    init = type(init)(p=init.p, q=init.q, duals=duals, v=init.v, iteration=0)
    states = [
        step(init, prob, engine, vmodel, cfg)
        for engine in (
            FlatEngine(sens),
            MultilevelEngine(feeder.net, feeder.partition, 1),
            MultilevelEngine(feeder.net, feeder.partition, 2),
        )
    ]
    for other in states[1:]:
        for field in ("p", "q", "v"):
            a, b = getattr(states[0], field), getattr(other, field)
            assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.max(np.abs(a)))
        np.testing.assert_array_equal(
            states[0].duals.mu_upper, other.duals.mu_upper
        )


def test_trivially_feasible_problem_converges_to_preferences():
    net, sens, prob = tiny_problem(v_min=0.5, v_max=1.5)
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(step_primal=5e-2, step_dual=5e-2, max_iters=200,
                       residual_tol=1e-12)
    result = run(initial_state(prob, vmodel), prob, FlatEngine(sens), vmodel, cfg)
    assert result.trace.records[-1].objective == pytest.approx(0.0, abs=1e-12)
    assert result.state.p[0] == pytest.approx(0.1)


def test_zero_iteration_run_has_single_initial_record():
    net, sens, prob = tiny_problem()
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(max_iters=0)
    result = run(initial_state(prob, vmodel), prob, FlatEngine(sens), vmodel, cfg)
    assert len(result.trace.records) == 1
    assert result.trace.records[0].iteration == 0
    assert result.state.iteration == 0


def test_non_positive_starting_voltage_is_rejected():
    # So heavy a loading drives the linear model below zero at the
    # preferred setpoints, where no iteration can recover.
    feeder = generate(FeederSpec(n_buses=60, seed=3, load_scale=20))
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    with pytest.raises(ProblemError, match=r"squared voltage -0\.3105 at 54:a"):
        initial_state(prob, LinearVoltageModel(sens))


def test_trace_csv_columns_and_determinism(tmp_path):
    feeder = generate(FeederSpec(n_buses=30, seed=4, load_scale=1.5))
    sens = build_sensitivity(feeder.net)
    # Tight bounds keep the duals moving for the full 50 iterations.
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background,
                        v_min=0.999, v_max=1.001)
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(max_iters=50)

    def one_csv():
        result = run(initial_state(prob, vmodel), prob, FlatEngine(sens), vmodel, cfg)
        text = result.trace.to_csv()
        # Timing is the one nondeterministic column; blank it for comparison.
        rows = [line.split(",") for line in text.strip().split("\n")]
        for row in rows[1:]:
            row[-1] = "-"
        return rows

    first, second = one_csv(), one_csv()
    assert first[0] == list(TRACE_COLUMNS)
    assert first == second
    assert len(first) == 52  # header + initial record + 50 iterations


def test_run_reports_convergence_status():
    net, sens, prob = tiny_problem(v_min=0.5, v_max=1.5)
    vmodel = LinearVoltageModel(sens)
    ok = run(
        initial_state(prob, vmodel), prob, FlatEngine(sens), vmodel,
        SolverConfig(step_primal=5e-2, step_dual=5e-2, max_iters=500, residual_tol=1e-10),
    )
    assert ok.converged
    net2, sens2, binding = tiny_problem(v_min=0.999, v_max=1.001)
    capped = run(
        initial_state(binding, vmodel), binding, FlatEngine(sens2), vmodel,
        SolverConfig(step_primal=1e-5, step_dual=1e-5, max_iters=3,
                     residual_tol=1e-12),
    )
    assert not capped.converged


def test_feasibility_invariants_under_adversarial_stepsizes():
    feeder = generate(FeederSpec(n_buses=25, seed=6, load_scale=2.0))
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    vmodel = LinearVoltageModel(sens)
    engine = FlatEngine(sens)
    rng = np.random.default_rng(12)
    for _ in range(40):
        cfg = SolverConfig(
            step_primal=float(10 ** rng.uniform(-5, 1)),
            step_dual=float(10 ** rng.uniform(-5, 1)),
            eta=float(10 ** rng.uniform(-6, -2)),
            max_iters=5,
        )
        state = initial_state(prob, vmodel)
        duals = DualState(
            mu_upper=rng.uniform(0, 10, prob.n), mu_lower=rng.uniform(0, 10, prob.n)
        )
        state = type(state)(p=state.p, q=state.q, duals=duals, v=state.v, iteration=0)
        for _ in range(5):
            state = step(state, prob, engine, vmodel, cfg)
            assert np.all(state.p >= prob.p_min) and np.all(state.p <= prob.p_max)
            assert np.all(state.q >= prob.q_min) and np.all(state.q <= prob.q_max)
            assert np.all(state.duals.mu_upper >= 0)
            assert np.all(state.duals.mu_lower >= 0)


def test_converged_duals_match_regularized_fixed_point():
    feeder = generate(FeederSpec(n_buses=40, seed=1, load_scale=1.8))
    sens = build_sensitivity(feeder.net)
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(step_primal=5e-3, step_dual=5e-2, eta=1e-4,
                       max_iters=60000, residual_tol=1e-10)
    result = run(initial_state(prob, vmodel), prob, FlatEngine(sens), vmodel, cfg)
    assert result.converged
    v = result.state.v
    up_fp = np.maximum(0.0, (v - prob.bounds.v_upper) / cfg.eta)
    lo_fp = np.maximum(0.0, (prob.bounds.v_lower - v) / cfg.eta)
    assert np.max(np.abs(result.state.duals.mu_upper - up_fp)) < 1e-6
    assert np.max(np.abs(result.state.duals.mu_lower - lo_fp)) < 1e-6


def test_residual_tail_is_monotone_on_converged_run():
    net, sens, prob = tiny_problem(v_min=0.97, v_max=1.02)
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(step_primal=1e-2, step_dual=1e-1, max_iters=2000,
                       residual_tol=1e-9)
    result = run(initial_state(prob, vmodel), prob, FlatEngine(sens), vmodel, cfg)
    res = result.trace.residuals()
    tail = res[int(0.9 * len(res)):]
    assert np.all(np.diff(tail) <= 1e-9)


def test_engine_size_mismatch_raises():
    net, sens, prob = tiny_problem()
    other = load_network(
        {
            "buses": [
                {"id": 0, "phases": ["a", "b", "c"], "parent": None},
                {"id": 1, "phases": ["a"], "parent": 0},
            ],
            "lines": [{"from": 0, "to": 1, "z": {"aa": [0.01, 0.02]}}],
        }
    )
    wrong = FlatEngine(build_sensitivity(other))
    vmodel = LinearVoltageModel(sens)
    with pytest.raises(SolverError, match="sized for"):
        step(initial_state(prob, vmodel), prob, wrong, vmodel, SolverConfig())
    # run and step share the check, so run fails the same way before the
    # engine ever sees the duals.
    small, large = generate(FeederSpec(20, seed=0)), generate(FeederSpec(25, seed=1))
    prob = make_problem(small.net, None, list(small.devices), small.background)
    vmodel = LinearVoltageModel(build_sensitivity(small.net))
    engine = MultilevelEngine(large.net, large.partition, 2)
    message = "engine is sized for 74 indices but the problem has 48"
    for entry in (step, run):
        with pytest.raises(SolverError, match=message):
            entry(initial_state(prob, vmodel), prob, engine, vmodel, SolverConfig(max_iters=3))


def test_sweep_model_failure_surfaces_with_diagnostics():
    net, sens, prob = tiny_problem()
    # Absurd fixed load makes the sweep collapse immediately.
    bad = make_problem(
        net, sens, list(prob.devices), {(2, "a"): (-80.0, -40.0)}
    )
    vmodel = SweepVoltageModel(net, sens)
    with pytest.raises(SolverError, match="voltage model failed"):
        initial_state(bad, vmodel)


def test_nan_voltage_raises_instead_of_ending_the_run():
    # The bounds sit above the start voltages, so the run does not stop early.
    net, sens, prob = tiny_problem(v_min=1.0, v_max=1.0005)

    class NanAtTwo(LinearVoltageModel):
        calls = 0

        def voltages(self, p, q, prev=None):
            # Call 1 gives the initial state's voltages, call 3 iteration 2's.
            v = super().voltages(p, q)
            self.calls += 1
            return v * np.nan if self.calls == 3 else v

    vmodel = NanAtTwo(sens)
    cfg = SolverConfig(max_iters=50, residual_tol=0.0)
    with pytest.raises(SolverError, match="non-finite saddle residual at iteration 2"):
        run(initial_state(prob, vmodel), prob, FlatEngine(sens), vmodel, cfg)


def generated_case(engine_name, model):
    feeder = generate(FeederSpec(n_buses=40, seed=2, load_scale=1.5), target_area_size=10,
                      target_subarea_size=4)
    sens = build_sensitivity(feeder.net)
    # Tight bounds keep the duals and the residual moving for the whole run.
    prob = make_problem(feeder.net, sens, list(feeder.devices), feeder.background,
                        v_min=0.999, v_max=1.001)
    if engine_name == "flat":
        engine = FlatEngine(sens)
    else:
        engine = MultilevelEngine(feeder.net, feeder.partition, 2)
    if model == "linear":
        vmodel = LinearVoltageModel(sens)
    else:
        vmodel = SweepVoltageModel(feeder.net, sens)
    return prob, engine, vmodel


@pytest.mark.parametrize("engine_name,model", [("trilevel", "linear"), ("flat", "sweep")])
def test_record_residual_is_the_saddle_residual_of_its_state(engine_name, model):
    prob, engine, vmodel = generated_case(engine_name, model)
    cfg = SolverConfig(step_primal=5e-3, step_dual=5e-2, max_iters=30)
    result = run(initial_state(prob, vmodel), prob, engine, vmodel, cfg)
    assert len(result.trace.records) == 31
    state = initial_state(prob, vmodel)
    for k, rec in enumerate(result.trace.records):
        if k:
            state = step(state, prob, engine, vmodel, cfg)
        g = engine.compute(state.duals.mu_upper, state.duals.mu_lower)
        want = saddle_residual(prob, state.p, state.q, state.duals, state.v, cfg, g.g_p, g.g_q)
        assert rec.iteration == state.iteration
        assert rec.residual == want
        assert rec.objective == prob.objective(state.p, state.q)
        assert rec.lagrangian == lagrangian_value(
            prob, state.p, state.q, state.duals.mu_upper, state.duals.mu_lower,
            state.v, cfg.eta,
        )
    assert len(set(result.trace.residuals())) > 1
    for name in ("p", "q", "v"):
        np.testing.assert_array_equal(getattr(result.state, name), getattr(state, name))
    np.testing.assert_array_equal(result.state.duals.mu_upper, state.duals.mu_upper)
    np.testing.assert_array_equal(result.state.duals.mu_lower, state.duals.mu_lower)
    assert result.residual == result.trace.records[-1].residual


def stable_rows(result):
    """trace.csv rows with the timing column blanked."""
    rows = [line.split(",") for line in result.trace.to_csv().strip().split("\n")]
    for row in rows[1:]:
        row[-1] = "-"
    return rows


def test_sweep_model_reused_across_runs_matches_a_fresh_model():
    prob, engine, vmodel = generated_case("flat", "sweep")
    cfg = SolverConfig(step_primal=5e-3, step_dual=5e-2, max_iters=30)
    first = run(initial_state(prob, vmodel), prob, engine, vmodel, cfg)
    second = run(initial_state(prob, vmodel), prob, engine, vmodel, cfg)
    fresh_model = SweepVoltageModel(prob.net, None)
    fresh = run(initial_state(prob, fresh_model), prob, engine, fresh_model, cfg)
    assert stable_rows(first) == stable_rows(second) == stable_rows(fresh)
    for result in (second, fresh):
        np.testing.assert_array_equal(result.state.v, first.state.v)
    assert vmodel.sweeps == 2 * fresh_model.sweeps


def test_sweep_model_starts_from_the_chain_of_its_own_solutions():
    prob, engine, vmodel = generated_case("flat", "sweep")
    net = prob.net
    p = [prob.p0 * (1.0 + 0.01 * k) for k in range(4)]
    q = [prob.q0 * (1.0 + 0.01 * k) for k in range(4)]
    sol0 = backward_forward_sweep(net, p[0], q[0])
    sol1 = backward_forward_sweep(net, p[1], q[1], start=sol0.phasors)
    sol2 = backward_forward_sweep(net, p[2], q[2], start=2.0 * sol1.phasors - sol0.phasors)
    v0 = vmodel.voltages(p[0], q[0])
    np.testing.assert_array_equal(v0, sol0.v)
    # The first step from a flat start continues from its phasors, the next
    # from the extrapolation of the last two solutions.
    v1 = vmodel.voltages(p[1], q[1], prev=v0)
    np.testing.assert_array_equal(v1, sol1.v)
    before = vmodel.sweeps
    v2 = vmodel.voltages(p[2], q[2], prev=v1)
    np.testing.assert_array_equal(v2, sol2.v)
    assert vmodel.sweeps - before == sol2.iterations
    # A copy is not the array the model returned: the sweep starts flat,
    # and the next call continues from that solution alone.
    flat = backward_forward_sweep(net, p[3], q[3])
    v3 = vmodel.voltages(p[3], q[3], prev=v2.copy())
    np.testing.assert_array_equal(v3, flat.v)
    warm = backward_forward_sweep(net, p[2], q[2], start=flat.phasors)
    np.testing.assert_array_equal(vmodel.voltages(p[2], q[2], prev=v3), warm.v)
    assert sol1.iterations < sol0.iterations and warm.iterations < flat.iterations


def test_feedback_run_sweeps_less_than_flat_starts():
    prob, engine, vmodel = generated_case("flat", "sweep")

    class FlatStarts(SweepVoltageModel):
        def voltages(self, p, q, prev=None):
            return super().voltages(p, q)

    cold = FlatStarts(prob.net, None)
    cfg = SolverConfig(step_primal=5e-3, step_dual=5e-2, max_iters=30)
    warm_run = run(initial_state(prob, vmodel), prob, engine, vmodel, cfg)
    cold_run = run(initial_state(prob, cold), prob, engine, cold, cfg)
    assert len(warm_run.trace.records) == len(cold_run.trace.records) == 31
    assert 31 <= vmodel.sweeps < cold.sweeps
    # Both stop each sweep on the same test, so the iterates stay together.
    assert np.max(np.abs(warm_run.state.v - cold_run.state.v)) < 1e-6


def test_run_computes_one_dual_update_per_record(monkeypatch):
    # run must enter each name that perfbench's tracer rebinds, so every
    # layer the tracer times is counted once per record.
    prob, engine, vmodel = generated_case("trilevel", "linear")
    calls = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    # The tracer rebinds names in mlopf.solver only: a call made inside
    # saddle_residual reaches opf.dual_update, which is counted apart.
    monkeypatch.setattr(solver, "dual_update", counted("dual_update", opf.dual_update))
    monkeypatch.setattr(opf, "dual_update", counted("opf.dual_update", opf.dual_update))
    monkeypatch.setattr(
        solver, "saddle_residual", counted("saddle_residual", opf.saddle_residual)
    )
    monkeypatch.setattr(
        solver, "violation_extents", counted("violation_extents", opf.violation_extents)
    )
    object.__setattr__(prob, "objective", counted("objective", prob.objective))
    cfg = SolverConfig(step_primal=5e-3, step_dual=5e-2, max_iters=20)
    result = run(initial_state(prob, vmodel), prob, engine, vmodel, cfg)
    records = len(result.trace.records)
    assert records == 21
    # One update per record through mlopf.solver, and one final
    # saddle_residual check, which perfbench times as opf.residual_ms.
    assert calls["dual_update"] == records
    assert calls["saddle_residual"] == calls["opf.dual_update"] == 1
    assert calls["violation_extents"] == calls["objective"] == records


def test_trace_header_and_row_follow_the_record_fields():
    assert TRACE_COLUMNS == (
        "iter", "objective", "lagrangian", "max_over_violation",
        "max_under_violation", "residual", "coupling_ops", "step_ns",
    )
    rec = TraceRecord(
        iteration=3, objective=0.1, lagrangian=-2.5e-07, max_over_violation=0.0,
        max_under_violation=1.0, residual=3e-09, coupling_ops=12, step_ns=4567,
    )
    assert rec.row() == "3,0.1,-2.5e-07,0.0,1.0,3e-09,12,4567"
    assert Trace([rec]).to_csv() == (
        "iter,objective,lagrangian,max_over_violation,max_under_violation,"
        "residual,coupling_ops,step_ns\n3,0.1,-2.5e-07,0.0,1.0,3e-09,12,4567\n"
    )


def test_state_halves_stay_views_of_its_setpoints_through_copies():
    # A state stacks p and q into one read-only z; p and q are its halves.
    # replace, copy, deepcopy and pickle all go through the constructor.
    import copy
    import dataclasses
    import pickle

    net, sens, prob = tiny_problem()
    state = step(initial_state(prob, LinearVoltageModel(sens)), prob, FlatEngine(sens),
                 LinearVoltageModel(sens), SolverConfig())
    assert [f.name for f in dataclasses.fields(state)] == ["p", "q", "duals", "v", "iteration"]
    copies = [
        state,
        dataclasses.replace(state, iteration=7),
        copy.copy(state),
        copy.deepcopy(state),
        pickle.loads(pickle.dumps(state)),
    ]
    for s in copies:
        assert not s.z.flags.writeable
        assert s.p.base is s.z and s.q.base is s.z
        np.testing.assert_array_equal(s.z, np.concatenate([state.p, state.q]))
        with pytest.raises(ValueError):
            s.p[0] = 1.0
    assert copies[1].iteration == 7 and copies[1].duals is state.duals


def test_a_hand_built_state_copies_its_inputs():
    net, sens, prob = tiny_problem()
    p, q = prob.p0.copy(), prob.q0.copy()
    state = SolverState(p, q, DualState(np.zeros(prob.n), np.zeros(prob.n)), np.ones(prob.n), 0)
    for given in (p, q):
        assert not np.shares_memory(state.z, given) and given.flags.writeable
    p[0] += 1.0
    assert state.p[0] == prob.p0[0]


def test_run_names_the_iteration_whose_voltage_model_failed():
    # Tight bounds, so the run does not stop at its initial state.
    net, sens, prob = tiny_problem(v_min=0.999, v_max=1.001)

    class FailsOnSecondCall(LinearVoltageModel):
        calls = 0

        def voltages(self, p, q, prev=None):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("plant offline")
            return super().voltages(p, q, prev)

    vmodel = FailsOnSecondCall(sens)
    state = initial_state(prob, vmodel)
    with pytest.raises(SolverError) as caught:
        run(state, prob, FlatEngine(sens), vmodel, SolverConfig(max_iters=5))
    assert str(caught.value) == "voltage model failed at iteration 1: plant offline"
