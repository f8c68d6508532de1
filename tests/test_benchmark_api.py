"""The library calls perfbench makes, kept working by a fast test.

perfbench/child.py and perfbench/tracer.py call these names with these
keywords. The benchmark's own tests run whole samples; this one only
checks that every call still resolves and runs on a small feeder.
"""

from __future__ import annotations

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mlopf import (
    FeederSpec,
    FlatEngine,
    SolverConfig,
    auto_partition,
    build_sensitivity,
    feeder_documents,
    generate,
    load_network,
    load_partition,
    load_problem,
    make_engine,
    validate_partition,
)
from mlopf import solver
from mlopf.solver import LinearVoltageModel, SweepVoltageModel, initial_state

from conftest import refuse_dense_build

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_solver_names_resolve():
    # Parse the table: perfbench/tracer.py is a script beside the benchmark,
    # not a module of the package.
    tree = ast.parse(TRACER.read_text())
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "SOLVER_FUNCTIONS"
    )
    names = ast.literal_eval(table)
    assert names
    for name in names:
        assert callable(getattr(solver, name)), name


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    feeder = generate(
        FeederSpec(n_buses=30, load_scale=20.0, seed=0),
        target_area_size=10, target_subarea_size=4,
    )
    out = tmp_path_factory.mktemp("bench_inputs")
    for name, doc in zip(("network.json", "devices.json", "partition.json"),
                         feeder_documents(feeder)):
        (out / name).write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize("kind", ["flat", "trilevel"])
@pytest.mark.parametrize("voltage_model", ["linear", "sweep"])
def test_benchmark_child_calls(inputs, kind, voltage_model):
    net = load_network(inputs / "network.json")
    part = None
    if kind != "flat":
        part = auto_partition(net, 10, 4)
        assert validate_partition(net, part) == []
    sens = build_sensitivity(net)
    problem = load_problem(inputs / "devices.json", net, sens)
    engine = make_engine(kind, sens=sens, net=net, part=part, threads=1)
    if voltage_model == "sweep":
        vmodel = SweepVoltageModel(net, sens)
    else:
        vmodel = LinearVoltageModel(sens)
    state = initial_state(problem, vmodel)
    cfg = SolverConfig(step_primal=5e-3, step_dual=5e-2, eta=1e-4, max_iters=5,
                       residual_tol=0.0)
    result = solver.run(state, problem, engine, vmodel, cfg)

    assert len(result.trace.records) == result.state.iteration + 1
    r = result.trace.records[-1]
    assert np.isfinite([r.objective, r.lagrangian, r.max_over_violation,
                        r.max_under_violation, r.residual, r.step_ns]).all()
    assert isinstance(result.converged, bool) and np.isfinite(result.residual)
    assert problem.bounds.v_lower.shape == (net.n_flat,)
    assert sens.r.nbytes + sens.x.nbytes > 0

    st = result.state
    if engine.name == "flat":
        part = load_partition(inputs / "partition.json", net)
        engine = make_engine("trilevel", sens=sens, net=net, part=part, threads=1)
    ref = FlatEngine(sens).compute(st.duals.mu_upper, st.duals.mu_lower)
    got = engine.compute(st.duals.mu_upper, st.duals.mu_lower)
    assert len(got.messages) > 0
    assert got.op_count > 0
    for a, b in ((got.g_p, ref.g_p), (got.g_q, ref.g_q)):
        assert np.max(np.abs(a - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))


def test_multilevel_solve_builds_no_dense_matrices(monkeypatch):
    # perfbench's set-up and solve on a trilevel workload: the dense R and X
    # are never built, so the whole run stays far below one N x N array,
    # and the gate's flat engine builds them afterwards to check the result.
    feeder = generate(
        FeederSpec(n_buses=2000, load_scale=0.5, seed=0),
        target_area_size=200, target_subarea_size=50,
    )
    network_doc, devices_doc, _ = feeder_documents(feeder)
    net = load_network(network_doc)
    part = auto_partition(net, 200, 50)
    n = net.n_flat
    cfg = SolverConfig(step_primal=1e-4, step_dual=1e-3, eta=1e-4, max_iters=20,
                       residual_tol=0.0)

    with monkeypatch.context() as patch:
        refuse_dense_build(patch)
        tracemalloc.start()
        try:
            sens = build_sensitivity(net)
            problem = load_problem(devices_doc, net, sens)
            engine = make_engine("trilevel", sens=sens, net=net, part=part, threads=1)
            vmodel = LinearVoltageModel(sens)
            result = solver.run(initial_state(problem, vmodel), problem, engine, vmodel, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.state.iteration == 20
    assert peak < 0.1 * 16 * n * n

    duals = result.state.duals
    assert np.count_nonzero(duals.mu_upper - duals.mu_lower) > 0
    ref = FlatEngine(sens).compute(duals.mu_upper, duals.mu_lower)
    got = engine.compute(duals.mu_upper, duals.mu_lower)
    for a, b in ((got.g_p, ref.g_p), (got.g_q, ref.g_q)):
        assert np.max(np.abs(a - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))


def test_flat_engines_on_one_model_build_the_dense_matrices_once(inputs, dense_builds):
    net = load_network(inputs / "network.json")
    sens = build_sensitivity(net)
    assert dense_builds == []
    first, second = FlatEngine(sens), FlatEngine(sens)
    assert dense_builds == [net]
    d = np.random.default_rng(0).normal(size=net.n_flat)
    zero = np.zeros(net.n_flat)
    assert first.compute(d, zero).g_p.tobytes() == second.compute(d, zero).g_p.tobytes()
    assert dense_builds == [net]


@pytest.mark.parametrize("kind,voltage_model", [("trilevel", "linear"), ("flat", "sweep")])
def test_benchmark_calls_on_a_swept_scope_with_dropped_phases(kind, voltage_model):
    # perfbench's calls on a feeder whose scopes all run as one tree sweep
    # over a forest of single-, two- and three-phase buses, then
    # the gate: the trilevel engine against the flat one at the final duals.
    feeder = generate(
        FeederSpec(n_buses=2000, load_scale=0.1, seed=0, phase_drop=0.4),
        target_area_size=200, target_subarea_size=50,
    )
    network_doc, devices_doc, partition_doc = feeder_documents(feeder)
    net = load_network(network_doc)
    part = None if kind == "flat" else auto_partition(net, 200, 50)
    sens = build_sensitivity(net)
    problem = load_problem(devices_doc, net, sens)
    engine = make_engine(kind, sens=sens, net=net, part=part, threads=1)
    if voltage_model == "sweep":
        vmodel = SweepVoltageModel(net, sens)
    else:
        vmodel = LinearVoltageModel(sens)
    cfg = SolverConfig(step_primal=1e-4, step_dual=1e-3, eta=1e-4, max_iters=5,
                       residual_tol=0.0)
    result = solver.run(initial_state(problem, vmodel), problem, engine, vmodel, cfg)
    assert result.state.iteration == 5

    if kind == "flat":
        part = load_partition(partition_doc, net)
        engine = make_engine("trilevel", sens=sens, net=net, part=part, threads=1)
    # The unclustered remainder is the one large enough to sweep every
    # scope; its block of the forest has a column per phase its buses hold.
    assert engine._forest is not None
    large = [s.key for s in engine._scopes if len(s.rem) >= 512]
    assert large == [("unclustered",)]
    a, b = engine._spans[-1]
    rows = engine._tree.rows
    assert len(np.unique(engine._cols[a:b])) < 3 * len(np.unique(net.flat_bus_pos[rows]))
    duals = result.state.duals
    assert np.count_nonzero(duals.mu_upper - duals.mu_lower) > 0
    ref = FlatEngine(sens).compute(duals.mu_upper, duals.mu_lower)
    got = engine.compute(duals.mu_upper, duals.mu_lower)
    for a, b in ((got.g_p, ref.g_p), (got.g_q, ref.g_q)):
        assert np.max(np.abs(a - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))
    # The declared count goes into summary.json as it is.
    assert type(got.op_count) is int and type(result.trace.total_coupling_ops()) is int
