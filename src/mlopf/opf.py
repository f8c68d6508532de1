"""Voltage-regulation OPF problem data and primal-dual building blocks.

The problem minimizes quadratic deviation of device setpoints from their
preferred levels subject to squared-voltage bounds under the linearized
model and per-device box constraints. Dual variables attach to the lower
and upper voltage bounds; a small quadratic dual regularization makes the
saddle point unique at the cost of a bounded constraint slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import (
    PHASE_NAME, Network, document_array, document_number, phase_code, read_document,
)
from .sensitivity import SensitivityMatrices


class ProblemError(ValueError):
    """Inconsistent device, bound, or configuration data."""


@dataclass(frozen=True)
class Device:
    """A dispatchable injection at one bus and phase, with a box feasible set."""

    bus: int
    phase: str
    p0: float                   # preferred real injection, p.u.
    q0: float                   # preferred reactive injection, p.u.
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    w_p: float = 1.0            # quadratic deviation weights
    w_q: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.p_min) and np.isfinite(self.p_max)
                and np.isfinite(self.q_min) and np.isfinite(self.q_max)):
            raise ProblemError(f"device at bus {self.bus}: box must be bounded")
        if self.p_min > self.p_max or self.q_min > self.q_max:
            raise ProblemError(f"device at bus {self.bus}: empty box")
        if not (self.p_min <= self.p0 <= self.p_max and self.q_min <= self.q0 <= self.q_max):
            raise ProblemError(f"device at bus {self.bus}: preference outside its box")
        if self.w_p <= 0 or self.w_q <= 0:
            raise ProblemError(f"device at bus {self.bus}: weights must be positive")


@dataclass(frozen=True)
class VoltageBounds:
    """Componentwise squared-magnitude limits."""

    v_lower: np.ndarray
    v_upper: np.ndarray

    def __post_init__(self):
        if self.v_lower.shape != self.v_upper.shape:
            raise ProblemError("bound vectors must have matching shapes")
        if np.any(self.v_lower <= 0) or np.any(self.v_lower >= self.v_upper):
            raise ProblemError("need 0 < v_lower < v_upper componentwise")

    @staticmethod
    def from_magnitudes(n: int, v_min: float, v_max: float) -> "VoltageBounds":
        """Uniform bounds given as magnitudes; squared on load."""
        if not 0 < v_min < v_max:
            raise ProblemError(f"need 0 < vmin < vmax, got vmin={v_min!r}, vmax={v_max!r}")
        return VoltageBounds(
            v_lower=np.full(n, float(v_min) ** 2),
            v_upper=np.full(n, float(v_max) ** 2),
        )


@dataclass(frozen=True)
class DualState:
    mu_upper: np.ndarray
    mu_lower: np.ndarray

    def __post_init__(self):
        if np.any(self.mu_upper < 0) or np.any(self.mu_lower < 0):
            raise ProblemError("dual variables must be nonnegative")

    @classmethod
    def _projected(cls, mu_upper: np.ndarray, mu_lower: np.ndarray) -> "DualState":
        """Duals already clipped at zero by their maker; skips the sign check."""
        state = object.__new__(cls)
        object.__setattr__(state, "mu_upper", mu_upper)
        object.__setattr__(state, "mu_lower", mu_lower)
        return state


@dataclass(frozen=True)
class SolverConfig:
    step_primal: float = 3.5e-4
    step_dual: float = 3.5e-3
    eta: float = 1e-4            # dual regularization weight
    max_iters: int = 3000
    residual_tol: float = 0.0    # 0 disables early stopping

    def __post_init__(self):
        if self.step_primal <= 0 or self.step_dual <= 0 or self.eta <= 0:
            raise ProblemError("stepsizes and eta must be positive")
        if self.max_iters < 0:
            raise ProblemError("max_iters must be nonnegative")
        if self.residual_tol < 0:
            raise ProblemError("residual_tol must be nonnegative")


@dataclass(frozen=True)
class Problem:
    """Vectorized problem data over the flat index space.

    Indices without a device hold fixed background injections, modeled as
    singleton boxes so every flat index has well-defined decision variables.
    """

    net: Network
    sens: SensitivityMatrices | None  # dense R/X; no solver code reads them
    devices: tuple[Device, ...]
    bounds: VoltageBounds
    p0: np.ndarray = field(repr=False)       # preferences / fixed injections
    q0: np.ndarray = field(repr=False)
    p_min: np.ndarray = field(repr=False)
    p_max: np.ndarray = field(repr=False)
    q_min: np.ndarray = field(repr=False)
    q_max: np.ndarray = field(repr=False)
    w_p: np.ndarray = field(repr=False)
    w_q: np.ndarray = field(repr=False)
    device_index: np.ndarray = field(repr=False)  # flat indices carrying devices

    @property
    def n(self) -> int:
        return self.net.n_flat

    def objective(self, p: np.ndarray, q: np.ndarray) -> float:
        """Total deviation cost; fixed indices contribute exactly zero."""
        return float(np.sum(self.w_p * (p - self.p0) ** 2 + self.w_q * (q - self.q0) ** 2))

    def cost_gradients(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return 2.0 * self.w_p * (p - self.p0), 2.0 * self.w_q * (q - self.q0)

    def project(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.clip(p, self.p_min, self.p_max), np.clip(q, self.q_min, self.q_max)


def make_problem(
    net: Network,
    sens: SensitivityMatrices | None,
    devices: list[Device],
    background: dict[tuple[int, str], tuple[float, float]] | None = None,
    v_min: float = 0.95,
    v_max: float = 1.05,
) -> Problem:
    """Assemble a Problem; background maps (bus, phase) to fixed (p, q)."""
    n = net.n_flat
    p0 = np.zeros(n)
    q0 = np.zeros(n)
    taken = np.zeros(n, dtype=bool)
    for (bus, ph), (pv, qv) in (background or {}).items():
        idx = net.flat_index(bus, ph)
        if taken[idx]:
            raise ProblemError(f"duplicate background injection at bus {bus} phase {ph}")
        taken[idx] = True
        p0[idx], q0[idx] = pv, qv
    p_min, p_max = p0.copy(), p0.copy()
    q_min, q_max = q0.copy(), q0.copy()
    w_p = np.ones(n)
    w_q = np.ones(n)
    dev_idx = []
    seen = set()
    for dev in devices:
        idx = net.flat_index(dev.bus, dev.phase)
        if idx in seen:
            raise ProblemError(f"two devices at bus {dev.bus} phase {dev.phase}")
        if taken[idx]:
            raise ProblemError(
                f"bus {dev.bus} phase {dev.phase} has both a device and a background load"
            )
        seen.add(idx)
        dev_idx.append(idx)
        p0[idx], q0[idx] = dev.p0, dev.q0
        p_min[idx], p_max[idx] = dev.p_min, dev.p_max
        q_min[idx], q_max[idx] = dev.q_min, dev.q_max
        w_p[idx], w_q[idx] = dev.w_p, dev.w_q
    bounds = VoltageBounds.from_magnitudes(n, v_min, v_max)
    return Problem(
        net=net, sens=sens, devices=tuple(devices), bounds=bounds,
        p0=p0, q0=q0, p_min=p_min, p_max=p_max, q_min=q_min, q_max=q_max,
        w_p=w_p, w_q=w_q, device_index=np.array(sorted(dev_idx), dtype=np.int64),
    )


# -- scalar per-device cost ------------------------------------------------

def cost_and_gradient(dev: Device, p: float, q: float) -> tuple[float, float, float]:
    """Deviation cost and its gradient for a single device."""
    dp, dq = p - dev.p0, q - dev.q0
    return (
        dev.w_p * dp * dp + dev.w_q * dq * dq,
        2.0 * dev.w_p * dp,
        2.0 * dev.w_q * dq,
    )


# -- dual update and saddle diagnostics -------------------------------------

def dual_update(
    state: DualState, v: np.ndarray, bounds: VoltageBounds, cfg: SolverConfig
) -> DualState:
    """Projected regularized ascent step on both dual vectors."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != state.mu_upper.shape:
        raise ProblemError("voltage vector shape does not match the duals")
    eps = cfg.step_dual
    up = np.maximum(0.0, state.mu_upper + eps * (v - bounds.v_upper - cfg.eta * state.mu_upper))
    lo = np.maximum(0.0, state.mu_lower + eps * (bounds.v_lower - v - cfg.eta * state.mu_lower))
    return DualState._projected(up, lo)


def lagrangian_value(
    problem: Problem,
    p: np.ndarray,
    q: np.ndarray,
    mu_upper: np.ndarray,
    mu_lower: np.ndarray,
    v: np.ndarray,
    eta: float,
) -> float:
    """Regularized Lagrangian at the given primal-dual point."""
    if not (len(p) == len(q) == len(mu_upper) == len(mu_lower) == len(v) == problem.n):
        raise ProblemError("dimension mismatch in Lagrangian evaluation")
    return _lagrangian(problem, problem.objective(p, q), mu_upper, mu_lower, v, eta)


def _lagrangian(problem: Problem, cost: float, mu_upper, mu_lower, v, eta: float) -> float:
    """The regularized Lagrangian given the objective value cost."""
    lower_term = float(mu_lower @ (problem.bounds.v_lower - v))
    upper_term = float(mu_upper @ (v - problem.bounds.v_upper))
    reg = 0.5 * eta * (float(mu_upper @ mu_upper) + float(mu_lower @ mu_lower))
    return cost + lower_term + upper_term - reg


def update_size(
    p: np.ndarray, q: np.ndarray, duals: DualState,
    p_new: np.ndarray, q_new: np.ndarray, duals_new: DualState, cfg: SolverConfig,
) -> float:
    """Infinity norm of one primal-dual update, each half over its step size."""
    # np.maximum propagates a NaN, where Python's max may drop it.
    r_primal = np.maximum(
        np.max(np.abs(p - p_new), initial=0.0),
        np.max(np.abs(q - q_new), initial=0.0),
    ) / cfg.step_primal
    r_dual = np.maximum(
        np.max(np.abs(duals.mu_upper - duals_new.mu_upper), initial=0.0),
        np.max(np.abs(duals.mu_lower - duals_new.mu_lower), initial=0.0),
    ) / cfg.step_dual
    return float(np.maximum(r_primal, r_dual))


def saddle_residual(
    problem: Problem,
    p: np.ndarray,
    q: np.ndarray,
    duals: DualState,
    v: np.ndarray,
    cfg: SolverConfig,
    g_p: np.ndarray,
    g_q: np.ndarray,
) -> float:
    """Infinity norm of the projected-gradient fixed-point map.

    Zero exactly at the saddle point of the regularized Lagrangian. The
    coupling terms g_p = R^T d and g_q = X^T d, with d = mu_upper - mu_lower,
    may come from any engine.
    """
    cp, cq = problem.cost_gradients(p, q)
    pp, qq = problem.project(p - cfg.step_primal * (cp + g_p), q - cfg.step_primal * (cq + g_q))
    nxt = dual_update(duals, v, problem.bounds, cfg)
    return update_size(p, q, duals, pp, qq, nxt, cfg)


def violation_extents(v: np.ndarray, bounds: VoltageBounds) -> tuple[float, float]:
    """Worst upper and lower squared-voltage bound violations (0 if none)."""
    over = float(np.max(v - bounds.v_upper, initial=-np.inf))
    under = float(np.max(bounds.v_lower - v, initial=-np.inf))
    return max(0.0, over), max(0.0, under)


# -- document I/O ---------------------------------------------------------

def load_problem(
    document: dict | str | Path, net: Network, sens: SensitivityMatrices | None
) -> Problem:
    """Build a Problem from the device document schema.

    sens may be None when nothing will read the dense sensitivities, as
    when the document is only being validated.
    """
    document = read_document(document, "device")
    devices = []
    for entry in document_array(document, "devices", "device"):
        try:
            devices.append(
                Device(
                    bus=int(entry["bus"]),
                    phase=PHASE_NAME[phase_code(entry["phase"])],
                    p0=float(entry["p0"]),
                    q0=float(entry["q0"]),
                    p_min=float(entry["pmin"]),
                    p_max=float(entry["pmax"]),
                    q_min=float(entry["qmin"]),
                    q_max=float(entry["qmax"]),
                    w_p=float(entry.get("wp", 1.0)),
                    w_q=float(entry.get("wq", 1.0)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemError(f"malformed device entry {entry!r}: {exc}") from exc
    background = {}
    for entry in document_array(document, "background", "device"):
        try:
            key = (int(entry["bus"]), PHASE_NAME[phase_code(entry["phase"])])
            background[key] = (float(entry["p"]), float(entry["q"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemError(f"malformed background entry {entry!r}: {exc}") from exc
    return make_problem(
        net, sens, devices, background,
        v_min=document_number(document, "vmin", 0.95, "device"),
        v_max=document_number(document, "vmax", 1.05, "device"),
    )
