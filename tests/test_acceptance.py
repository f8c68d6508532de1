"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. Shared heavy scenarios (the undervoltage feeder and
its converged solve) are module-scoped fixtures.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from mlopf.bench import bench_sweep, fit_loglog, two_level_feeder
from mlopf.coupling import (
    FlatEngine,
    FlowRecord,
    MultilevelEngine,
    privacy_audit,
)
from mlopf.feedergen import FeederSpec, generate
from mlopf.opf import DualState, SolverConfig, make_problem
from mlopf.partition import auto_partition, validate_partition
from mlopf.powerflow import backward_forward_sweep, compare_models
from mlopf.sensitivity import build_sensitivity
from mlopf.solver import (
    LinearVoltageModel,
    SweepVoltageModel,
    initial_state,
    run,
    step,
)

from conftest import random_network


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def undervoltage_case():
    """Heavy-load 300-bus feeder: the voltage-regulation scenario."""
    feeder = generate(
        FeederSpec(n_buses=300, seed=0, load_scale=1.8),
        target_area_size=90, target_subarea_size=28,
    )
    sens = build_sensitivity(feeder.net)
    problem = make_problem(
        feeder.net, sens, list(feeder.devices), feeder.background
    )
    return feeder, sens, problem


@pytest.fixture(scope="module")
def undervoltage_solve(undervoltage_case):
    """Converged linear-model solve of the undervoltage scenario."""
    feeder, sens, problem = undervoltage_case
    cfg = SolverConfig(
        step_primal=5e-3, step_dual=5e-2, eta=1e-4,
        max_iters=80000, residual_tol=1e-11,
    )
    vmodel = LinearVoltageModel(sens)
    result = run(initial_state(problem, vmodel), problem, FlatEngine(sens), vmodel, cfg)
    return cfg, result


def test_criterion_1_engine_equivalence_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    trials = 0
    while trials < 100:
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
        net, part = feeder.net, feeder.partition
        assert validate_partition(net, part) == []
        sens = build_sensitivity(net)
        mu_up = rng.uniform(0, 2, net.n_flat)
        mu_lo = rng.uniform(0, 2, net.n_flat)
        ref = FlatEngine(sens).compute(mu_up, mu_lo)
        tol_p = 1e-9 * (1.0 + float(np.max(np.abs(ref.g_p))))
        tol_q = 1e-9 * (1.0 + float(np.max(np.abs(ref.g_q))))
        for depth in (1, 2):
            res = MultilevelEngine(net, part, depth).compute(mu_up, mu_lo)
            gap_p = float(np.max(np.abs(res.g_p - ref.g_p)))
            gap_q = float(np.max(np.abs(res.g_q - ref.g_q)))
            assert gap_p < tol_p and gap_q < tol_q
            worst = max(worst, gap_p / tol_p, gap_q / tol_q)
        trials += 1
    elapsed = time.time() - t0
    report(
        1,
        trials >= 100 and elapsed < 60,
        f"{trials} random triples, worst gap {worst:.2e} of tolerance, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_trajectory_equivalence():
    t0 = time.time()
    feeder = generate(
        FeederSpec(n_buses=300, seed=3, phase_drop=0.0, load_scale=1.8),
        target_area_size=75, target_subarea_size=25,
    )
    shape = [len(a.subareas) for a in feeder.partition.areas]
    assert len(shape) == 3 and all(2 <= s <= 3 for s in shape)
    sens = build_sensitivity(feeder.net)
    problem = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(
        step_primal=3.5e-4, step_dual=3.5e-3, eta=1e-4,
        max_iters=3000, residual_tol=0.0,
    )
    engines = {
        "flat": FlatEngine(sens),
        "bilevel": MultilevelEngine(feeder.net, feeder.partition, 1),
        "trilevel": MultilevelEngine(feeder.net, feeder.partition, 2),
    }
    objectives = {}
    for name, engine in engines.items():
        result = run(initial_state(problem, vmodel), problem, engine, vmodel, cfg)
        assert result.state.iteration == 3000
        objectives[name] = result.trace.objectives()
    ref = objectives["flat"]
    worst = 0.0
    for name in ("bilevel", "trilevel"):
        gap = np.abs(objectives[name] - ref) / (1e-12 + np.abs(ref))
        worst = max(worst, float(gap.max()))
        final_rel = abs(objectives[name][-1] - ref[-1]) / abs(ref[-1])
        assert final_rel < 1e-8
    elapsed = time.time() - t0
    report(
        2,
        worst < 1e-6 and elapsed < 600,
        f"3 areas x {shape} subareas, worst per-iteration relative objective "
        f"gap {worst:.2e} over 3000 iterations, {elapsed:.1f}s",
    )


def test_criterion_3_complexity_scaling():
    t0 = time.time()
    sizes = [256, 512, 1024, 2048]
    rows = bench_sweep(
        sizes, ["flat", "bilevel", "trilevel"],
        iters=30, subareas_per_area=4, seed=0,
    )
    by = {(r.n, r.engine): r for r in rows}
    flat_ops = [by[(n, "flat")].coupling_ops for n in sizes]
    slope, r2 = fit_loglog(sizes, flat_ops)
    bil_ops = [by[(n, "bilevel")].coupling_ops for n in sizes]
    bil_slope, _ = fit_loglog(sizes, bil_ops)
    ratio_1024 = by[(1024, "flat")].coupling_ops / by[(1024, "bilevel")].coupling_ops
    tri_lt_bi = by[(1024, "trilevel")].coupling_ops < by[(1024, "bilevel")].coupling_ops
    wall_ratio = (
        by[(2048, "flat")].coupling_ns / by[(2048, "bilevel")].coupling_ns
    )
    elapsed = time.time() - t0
    report(
        3,
        r2 >= 0.99 and ratio_1024 >= 3.0 and tri_lt_bi and bil_slope < 2.0
        and wall_ratio >= 2.0 and elapsed < 900,
        f"flat op fit r^2={r2:.4f} (slope {slope:.3f}), bilevel slope "
        f"{bil_slope:.2f}, flat/bilevel ops at 1024 = {ratio_1024:.1f}, "
        f"trilevel<bilevel at 1024 = {tri_lt_bi}, coupling wall ratio at "
        f"2048 = {wall_ratio:.1f}, {elapsed:.1f}s",
    )


def test_criterion_4_voltage_regulation(undervoltage_case, undervoltage_solve):
    feeder, sens, problem = undervoltage_case
    cfg, result = undervoltage_solve
    initial = backward_forward_sweep(feeder.net, problem.p0, problem.q0)
    frac_low = float(np.mean(np.sqrt(initial.v) < 0.95))
    delta = 1e-3
    v = result.state.v
    within = bool(
        np.all(v >= problem.bounds.v_lower - delta)
        and np.all(v <= problem.bounds.v_upper + delta)
    )
    at_lower = int(np.sum(np.abs(v - problem.bounds.v_lower) <= delta))
    report(
        4,
        frac_low >= 0.2 and result.converged and within and at_lower >= 2,
        f"{frac_low:.0%} of indices initially undervolted; converged with "
        f"every squared voltage inside [vmin^2 - {delta}, vmax^2 + {delta}] "
        f"and {at_lower} indices resting at the lower bound",
    )


def test_criterion_5_saddle_fixed_point(undervoltage_case, undervoltage_solve):
    _, _, problem = undervoltage_case
    cfg, result = undervoltage_solve
    assert result.residual < 1e-8
    v = result.state.v
    up_fp = np.maximum(0.0, (v - problem.bounds.v_upper) / cfg.eta)
    lo_fp = np.maximum(0.0, (problem.bounds.v_lower - v) / cfg.eta)
    gap_up = float(np.max(np.abs(result.state.duals.mu_upper - up_fp)))
    gap_lo = float(np.max(np.abs(result.state.duals.mu_lower - lo_fp)))
    report(
        5,
        gap_up < 1e-6 and gap_lo < 1e-6,
        f"residual {result.residual:.1e} < 1e-8; dual fixed-point identity "
        f"holds within ({gap_up:.1e}, {gap_lo:.1e})",
    )


def test_criterion_6_nonlinear_feedback(undervoltage_case):
    t0 = time.time()
    feeder, sens, problem = undervoltage_case
    # Sweep converges on a family of generated feeders.
    worst_mismatch = 0.0
    for seed in range(5):
        f = generate(FeederSpec(n_buses=120, seed=seed, load_scale=1.5))
        s = build_sensitivity(f.net)
        prob = make_problem(f.net, s, list(f.devices), f.background)
        sol = backward_forward_sweep(f.net, prob.p0, prob.q0, tol=1e-8)
        worst_mismatch = max(worst_mismatch, sol.max_mismatch)
    # Light loading: nonlinear and linear models agree within half a percent.
    rng = np.random.default_rng(0)
    light = generate(FeederSpec(n_buses=60, seed=2))
    s_light = build_sensitivity(light.net)
    p = rng.uniform(-0.01, 0.01, light.net.n_flat)
    q = rng.uniform(-0.01, 0.01, light.net.n_flat)
    div = compare_models(light.net, s_light, p, q)
    light_ok = div.max_abs < 0.005 * light.net.base_v_squared
    # Feedback-mode solve on the undervoltage feeder.
    vmodel = SweepVoltageModel(feeder.net, sens)
    cfg = SolverConfig(
        step_primal=5e-3, step_dual=5e-2, eta=1e-4,
        max_iters=40000, residual_tol=1e-9,
    )
    result = run(initial_state(problem, vmodel), problem, FlatEngine(sens), vmodel, cfg)
    delta = 2e-3
    v = result.state.v  # nonlinear voltages: the model in feedback mode
    within = bool(
        np.all(v >= problem.bounds.v_lower - delta)
        and np.all(v <= problem.bounds.v_upper + delta)
    )
    elapsed = time.time() - t0
    report(
        6,
        worst_mismatch < 1e-8 and light_ok and result.converged and within,
        f"sweep mismatch <= {worst_mismatch:.1e}; light-load gap "
        f"{div.max_abs:.1e}; feedback solve converged in "
        f"{result.state.iteration} iterations with nonlinear voltages inside "
        f"bounds + {delta}, {elapsed:.0f}s",
    )


def test_criterion_7_privacy_audit(undervoltage_case):
    feeder, sens, problem = undervoltage_case
    duals = np.random.default_rng(1).uniform(0, 1, (2, problem.n))
    reports = {}
    for name, make in (
        ("bilevel", lambda rec: MultilevelEngine(feeder.net, feeder.partition, 1, record=rec)),
        ("trilevel", lambda rec: MultilevelEngine(feeder.net, feeder.partition, 2, record=rec)),
        ("flat", lambda rec: FlatEngine(sens, record=rec)),
    ):
        rec = FlowRecord()
        make(rec).compute(duals[0], duals[1])
        reports[name] = privacy_audit(rec, feeder.net, feeder.partition)
    ok = (
        reports["bilevel"].violations == []
        and not reports["bilevel"].global_access
        and reports["trilevel"].violations == []
        and not reports["trilevel"].global_access
        and reports["flat"].global_access
    )
    report(
        7,
        ok,
        "bilevel and trilevel audits show zero cross-area per-bus accesses; "
        "flat reports global access (negative control)",
    )


def test_criterion_8_numerical_hygiene():
    t0 = time.time()
    rng = np.random.default_rng(99)
    # Sensitivity entries against central finite differences.
    fd_worst = 0.0
    for seed in range(3):
        net = random_network(np.random.default_rng(seed), 25)
        sens = build_sensitivity(net)
        n = sens.n
        from mlopf.sensitivity import voltage_linear

        p, q = rng.normal(0, 0.1, n), rng.normal(0, 0.1, n)
        h = 1e-6
        for col in rng.choice(n, size=6, replace=False):
            e = np.zeros(n)
            e[col] = h
            dp = (voltage_linear(sens, p + e, q) - voltage_linear(sens, p - e, q)) / (2 * h)
            dq = (voltage_linear(sens, p, q + e) - voltage_linear(sens, p, q - e)) / (2 * h)
            fd_worst = max(
                fd_worst,
                float(np.max(np.abs(dp - sens.r[:, col]))),
                float(np.max(np.abs(dq - sens.x[:, col]))),
            )
    # Matrix symmetry on the symmetric (phase-decoupled) feeder family.
    sym_worst = 0.0
    for seed in range(3):
        net = random_network(np.random.default_rng(200 + seed), 30, mutual="none")
        sens = build_sensitivity(net)
        sym_worst = max(
            sym_worst,
            float(np.max(np.abs(sens.r - sens.r.T))),
            float(np.max(np.abs(sens.x - sens.x.T))),
        )
    # 10,000-step feasibility fuzz with adversarial stepsizes.
    feeder = generate(FeederSpec(n_buses=25, seed=5, load_scale=2.0))
    sens = build_sensitivity(feeder.net)
    problem = make_problem(feeder.net, sens, list(feeder.devices), feeder.background)
    vmodel = LinearVoltageModel(sens)
    engine = FlatEngine(sens)
    cases = 0
    for trial in range(500):
        cfg = SolverConfig(
            step_primal=float(10 ** rng.uniform(-5, 1)),
            step_dual=float(10 ** rng.uniform(-5, 1)),
            eta=float(10 ** rng.uniform(-6, -1)),
            max_iters=20,
        )
        state = initial_state(problem, vmodel)
        state = type(state)(
            p=state.p, q=state.q,
            duals=DualState(
                mu_upper=rng.uniform(0, 10, problem.n),
                mu_lower=rng.uniform(0, 10, problem.n),
            ),
            v=state.v, iteration=0,
        )
        for _ in range(20):
            state = step(state, problem, engine, vmodel, cfg)
            assert np.all(state.p >= problem.p_min) and np.all(state.p <= problem.p_max)
            assert np.all(state.q >= problem.q_min) and np.all(state.q <= problem.q_max)
            assert np.all(state.duals.mu_upper >= 0)
            assert np.all(state.duals.mu_lower >= 0)
            cases += 1
    elapsed = time.time() - t0
    report(
        8,
        fd_worst < 1e-8 and sym_worst < 1e-12 and cases >= 10000,
        f"finite-difference gap {fd_worst:.1e}; symmetry gap {sym_worst:.1e}; "
        f"{cases} feasibility step-cases clean, {elapsed:.0f}s",
    )
