"""Per-layer spans for one solve, installed from outside the library.

No file of the package changes. The engine and voltage model handed to
``solver.run`` are wrapped in timing proxies, and the opf and powerflow
functions the solver calls are rebound only in the ``mlopf.solver``
namespace. Calls those functions make internally, such as
``saddle_residual`` -> ``opf.dual_update``, still reach the originals, so
no time is counted twice. Each span keeps its call count, its total time
and the time its child spans cover; self time is the difference.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

# Names the solver module imports from opf and powerflow, and their spans.
SOLVER_FUNCTIONS = {
    "dual_update": "opf.dual_update",
    "saddle_residual": "opf.saddle_residual",
    "lagrangian_value": "opf.lagrangian_value",
    "violation_extents": "opf.violation_extents",
    "backward_forward_sweep": "powerflow.sweep",
}


@dataclass
class Span:
    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self._open: list[int] = []  # child time of each span now running

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        """fn, timed as span name; nested wrapped calls count as its children."""
        span = self.span(name)
        open_spans = self._open
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            open_spans.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span.calls += 1
                span.total_ns += dt
                span.child_ns += open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt

        return timed


class TimedEngine:
    """Coupling engine proxy: times compute and counts ops and messages."""

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer
        self.n = engine.n
        self.compute = tracer.wrap("coupling.compute", self._compute)

    def _compute(self, mu_upper, mu_lower):
        result = self._engine.compute(mu_upper, mu_lower)
        self._tracer.count("coupling.ops", result.op_count)
        self._tracer.count("coupling.messages", len(result.messages))
        return result


class TimedVoltageModel:
    """Voltage-model proxy: times each voltages call."""

    def __init__(self, vmodel, tracer: Tracer):
        self.voltages = tracer.wrap("voltage_model.voltages", vmodel.voltages)


def time_objective(problem, tracer: Tracer) -> None:
    """Time problem.objective on this one instance.

    Problem is a frozen dataclass, so the bound method is shadowed by an
    instance attribute set through object.__setattr__; no other Problem and
    no class attribute changes.
    """
    object.__setattr__(problem, "objective", tracer.wrap("opf.objective", problem.objective))


@contextmanager
def solver_functions_traced(tracer: Tracer):
    """Rebind the opf and powerflow names in mlopf.solver for the duration."""
    from mlopf import solver

    saved = {name: getattr(solver, name) for name in SOLVER_FUNCTIONS}
    original_sweep = saved["backward_forward_sweep"]

    def counted_sweep(*args, **kwargs):
        sol = original_sweep(*args, **kwargs)
        tracer.count("powerflow.sweeps", sol.iterations)
        return sol

    replacements = dict(saved, backward_forward_sweep=counted_sweep)
    try:
        for name, span in SOLVER_FUNCTIONS.items():
            setattr(solver, name, tracer.wrap(span, replacements[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(solver, name, fn)


def layer_metrics(tracer: Tracer, iterations: int, engine: str, voltage_model: str) -> dict:
    """Per-layer figures of one traced solve, keyed by metric name.

    Only layers that run on the workload are reported: the dense voltage
    map with the linear model, the power-flow sweep with the sweep model,
    and coupling messages with a multilevel engine. The run span must be
    named "solver.run". Shares are of the traced solve time; per-call
    times divide a span's total by its call count.
    """
    run = tracer.span("solver.run")
    records = iterations + 1  # one trace record for the initial state

    def per_call_ms(name: str) -> float:
        s = tracer.span(name)
        return s.total_ns / max(s.calls, 1) / 1e6

    def share(name: str) -> float:
        return tracer.span(name).total_ns / run.total_ns

    def per_call(count: str, span: str) -> float:
        return tracer.counts.get(count, 0) / max(tracer.span(span).calls, 1)

    record_ns = (
        tracer.span("opf.objective").total_ns
        + tracer.span("opf.lagrangian_value").self_ns
        + tracer.span("opf.violation_extents").total_ns
    )
    out = {
        "coupling.compute_ms": per_call_ms("coupling.compute"),
        "coupling.share": share("coupling.compute"),
        "coupling.ops_per_apply": per_call("coupling.ops", "coupling.compute"),
        "opf.dual_update_ms": per_call_ms("opf.dual_update"),
        "opf.residual_ms": per_call_ms("opf.saddle_residual"),
        "opf.record_ms": record_ns / records / 1e6,
        "solver.self_ms": run.self_ns / max(iterations, 1) / 1e6,
    }
    if engine != "flat":
        out["coupling.messages_per_apply"] = per_call("coupling.messages", "coupling.compute")
    if voltage_model == "linear":
        out["sensitivity.voltage_ms"] = per_call_ms("voltage_model.voltages")
        out["sensitivity.voltage_share"] = share("voltage_model.voltages")
    else:
        out["powerflow.sweep_ms"] = per_call_ms("powerflow.sweep")
        out["powerflow.sweeps_per_call"] = per_call("powerflow.sweeps", "powerflow.sweep")
        out["powerflow.share"] = share("powerflow.sweep")
    return out
