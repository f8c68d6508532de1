"""Primal-dual gradient iteration with pluggable coupling and voltage models.

One step is a Jacobi-style simultaneous update: the primal projected
gradient step uses the coupling terms at the current duals, the dual ascent
uses the current voltages, and only then are voltages recomputed at the new
setpoints (linearly, or through nonlinear power flow in feedback mode).
`run` computes each update once: record k's residual is the size of the
update computed at state k, and that update is taken only if the run goes
on. A state holds its setpoints as one stacked vector z = [p; q], whose
halves are its p and q. In feedback mode the initial state's
sweep starts from the flat profile and every later sweep is warm-started
from the phasors behind the previous states' voltages (extrapolated
linearly from the last two), since one primal step moves the injections
only a little. Repeated runs of the
same configuration produce bitwise identical traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .coupling import CouplingResult
from .opf import (
    DualState,
    Problem,
    ProblemError,
    SolverConfig,
    _lagrangian,
    dual_update,
    lagrangian_value,  # noqa: F401  (perfbench's tracer rebinds this name)
    primal_step,
    saddle_residual,
    update_size,
    violation_extents,
)
from .powerflow import backward_forward_sweep
from .sensitivity import SensitivityMatrices, voltage_linear


class SolverError(RuntimeError):
    """Engine/problem mismatch or a failed voltage-model evaluation."""


class LinearVoltageModel:
    name = "linear"

    def __init__(self, sens: SensitivityMatrices):
        self.sens = sens

    def voltages(self, p: np.ndarray, q: np.ndarray, prev: np.ndarray | None = None) -> np.ndarray:
        """v at (p, q); prev, the previous state's voltages, is not used."""
        return voltage_linear(self.sens, p, q)


class SweepVoltageModel:
    """Nonlinear feedback mode: voltages come from the sweep each iteration.

    The model keeps the v it last returned with that solution's phasors.
    A call whose prev is that very array continues a chain of solutions:
    its sweep starts from those phasors or, when the last call continued
    the chain too, from their linear extrapolation 2 V_k - V_(k-1). Any
    other call starts flat and begins a new chain. So the starting point
    depends only on the states the caller stepped through, never on what
    the model solved in between, and a model reused across runs gives the
    same bits as a fresh one. Every sweep stops at powerflow's SWEEP_TOL or
    fails after MAX_SWEEPS. sweeps counts the sweeps of every call. sens is
    not used; the parameter stays for callers that still pass it.
    """

    name = "sweep"

    def __init__(self, net, sens: SensitivityMatrices):
        self.net = net
        self.sweeps = 0
        # The last solution, and the one before it in the same chain.
        self._last_v = self._last_phasors = self._prior_phasors = None

    def voltages(self, p: np.ndarray, q: np.ndarray, prev: np.ndarray | None = None) -> np.ndarray:
        start = prior = None
        if prev is not None and prev is self._last_v:
            prior = self._last_phasors
            # Starting at the last phasors alone would feed a one-step lag
            # of the voltages back into the primal-dual loop.
            start = prior if self._prior_phasors is None else 2.0 * prior - self._prior_phasors
        # Called through the module name, which perfbench's tracer rebinds.
        sol = backward_forward_sweep(self.net, p, q, start=start)
        self.sweeps += sol.iterations
        self._last_v, self._last_phasors, self._prior_phasors = sol.v, sol.phasors, prior
        return sol.v


@dataclass(frozen=True)
class SolverState:
    """One iterate: the setpoints, the duals and the voltages at the setpoints.

    p and q are copied into one read-only vector z = [p; q], and the
    attributes p and q are rebound to views of its halves. A copy or pickle
    goes back through the constructor, so its p and q are views of its z.
    """

    p: np.ndarray
    q: np.ndarray
    duals: DualState
    v: np.ndarray
    iteration: int

    def __post_init__(self):
        z = np.concatenate((self.p, self.q))
        z.flags.writeable = False
        n = len(self.p)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "p", z[:n])
        object.__setattr__(self, "q", z[n:])

    def __reduce__(self):
        return type(self), (self.p, self.q, self.duals, self.v, self.iteration)


def initial_state(problem: Problem, vmodel) -> SolverState:
    """Preferred setpoints, zero duals, voltages from the model.

    A squared voltage at or below zero means the loading is beyond what the
    model can represent, so no iteration from it is meaningful: that raises
    ProblemError naming the worst index.
    """
    try:
        v = vmodel.voltages(problem.p0, problem.q0)
    except Exception as exc:
        raise SolverError(f"voltage model failed at the initial point: {exc}") from exc
    if len(v) and not v.min() > 0.0:
        worst = int(np.argmin(v))
        bus, phase = problem.net.flat_labels()[worst]
        raise ProblemError(
            f"non-positive squared voltage {v[worst]:.4g} at {bus}:{phase} at the"
            " preferred setpoints; the loading is too heavy for the voltage model"
        )
    return SolverState(problem.p0, problem.q0, DualState(
        mu_upper=np.zeros(problem.n), mu_lower=np.zeros(problem.n)
    ), v, 0)


def _coupling(state: SolverState, problem: Problem, engine) -> CouplingResult:
    """The engine's coupling terms at state's duals, from an engine of the problem's size."""
    if engine.n != problem.n:
        raise SolverError(
            f"engine is sized for {engine.n} indices but the problem has {problem.n}"
        )
    return engine.compute(state.duals.mu_upper, state.duals.mu_lower)


def _update(
    state: SolverState, problem: Problem, coupling: CouplingResult, cfg: SolverConfig
) -> tuple[np.ndarray, DualState, float]:
    """The projected primal step and the dual ascent at state, and their size.

    The size is the infinity norm of the update, each half over its step
    size: saddle_residual at state, from the same three calls.
    """
    z = primal_step(problem, state.z, coupling.g.reshape(-1), cfg)
    duals = dual_update(state.duals, state.v, problem.bounds, cfg)
    return z, duals, update_size(state.z, z, state.duals, duals, cfg)


def _advance(state: SolverState, vmodel, z: np.ndarray, duals: DualState) -> SolverState:
    """The next state: setpoints z = [p; q] and duals, with voltages at the setpoints."""
    k = state.iteration + 1
    n = len(z) // 2
    try:
        v = vmodel.voltages(z[:n], z[n:], prev=state.v)
    except Exception as exc:
        raise SolverError(f"voltage model failed at iteration {k}: {exc}") from exc
    return SolverState(z[:n], z[n:], duals, v, k)


def step(
    state: SolverState,
    problem: Problem,
    engine,
    vmodel,
    cfg: SolverConfig,
) -> SolverState:
    """One simultaneous primal-dual update."""
    z, duals, _ = _update(state, problem, _coupling(state, problem, engine), cfg)
    return _advance(state, vmodel, z, duals)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int = field(metadata={"column": "iter"})
    objective: float
    lagrangian: float
    max_over_violation: float
    max_under_violation: float
    residual: float
    coupling_ops: int
    step_ns: int

    def row(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))


TRACE_COLUMNS = tuple(f.metadata.get("column", f.name) for f in fields(TraceRecord))


@dataclass
class Trace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def residuals(self) -> np.ndarray:
        return np.array([r.residual for r in self.records])

    def total_coupling_ops(self) -> int:
        return sum(r.coupling_ops for r in self.records)

    def to_csv(self, path: str | Path | None = None) -> str:
        text = "\n".join(
            [",".join(TRACE_COLUMNS)] + [r.row() for r in self.records]
        ) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text


@dataclass
class RunResult:
    trace: Trace
    state: SolverState
    converged: bool
    residual: float
    total_step_ns: int
    total_coupling_ns: int


def _record(problem, cfg, state, res, ops, step_ns) -> TraceRecord:
    over, under = violation_extents(state.v, problem.bounds)
    cost = problem.objective(state.p, state.q)
    return TraceRecord(
        iteration=state.iteration,
        objective=cost,
        lagrangian=_lagrangian(
            problem, cost, state.duals.mu_upper, state.duals.mu_lower, state.v, cfg.eta
        ),
        max_over_violation=over,
        max_under_violation=under,
        residual=res,
        coupling_ops=ops,
        step_ns=step_ns,
    )


def run(
    state: SolverState,
    problem: Problem,
    engine,
    vmodel,
    cfg: SolverConfig,
) -> RunResult:
    """Iterate until max_iters or the residual drops to the tolerance.

    The trace holds one record for the initial state and one per executed
    iteration. At each state the run makes one coupling call and computes
    one update. The record's residual is the size of that update, which
    equals saddle_residual at the state; the update is taken only if the
    run goes on. A residual that is not finite raises SolverError at once.
    RunResult.residual is saddle_residual at the returned state.
    """
    trace = Trace()
    total_coupling_ns = 0
    total_step_ns = 0
    t0 = time.perf_counter_ns()
    while True:
        t1 = time.perf_counter_ns()
        coupling = _coupling(state, problem, engine)
        t2 = time.perf_counter_ns()
        z, duals, res = _update(state, problem, coupling, cfg)
        t3 = time.perf_counter_ns()
        # A NaN residual compares false against the tolerance and would end
        # the loop as if it had merely not converged.
        if not math.isfinite(res):
            raise SolverError(f"non-finite saddle residual at iteration {state.iteration}")
        total_coupling_ns += t2 - t1
        # A record's step time runs from the previous record to this one.
        step_ns = t3 - t0 if trace.records else 0
        total_step_ns += step_ns
        trace.append(_record(problem, cfg, state, res, coupling.op_count, step_ns))
        if state.iteration >= cfg.max_iters or res <= cfg.residual_tol:
            break
        t0 = time.perf_counter_ns()
        state = _advance(state, vmodel, z, duals)

    # The last record's residual, computed again: perfbench times this call
    # as opf.residual_ms.
    residual = saddle_residual(
        problem, state.p, state.q, state.duals, state.v, cfg, coupling.g_p, coupling.g_q
    )
    return RunResult(
        trace=trace,
        state=state,
        converged=residual <= cfg.residual_tol,
        residual=residual,
        total_step_ns=total_step_ns,
        total_coupling_ns=total_coupling_ns,
    )
