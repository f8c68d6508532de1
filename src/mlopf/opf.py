"""Voltage-regulation OPF problem data and primal-dual building blocks.

The problem minimizes quadratic deviation of device setpoints from their
preferred levels subject to squared-voltage bounds under the linearized
model and per-device box constraints. Dual variables attach to the lower
and upper voltage bounds; a small quadratic dual regularization makes the
saddle point unique at the cost of a bounded constraint slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .network import (
    Network, document_entries, document_id, document_keys, document_number, document_phase,
    json_number, read_document,
)
from .sensitivity import SensitivityMatrices


class ProblemError(ValueError):
    """Inconsistent device, bound, or configuration data."""


V_MIN, V_MAX = 0.95, 1.05   # default voltage magnitude limits, p.u.


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
        if not (0 < self.w_p < np.inf and 0 < self.w_q < np.inf):
            raise ProblemError(f"device at bus {self.bus}: weights must be positive and finite")


@dataclass(frozen=True)
class VoltageBounds:
    """Componentwise squared-magnitude limits."""

    v_lower: np.ndarray
    v_upper: np.ndarray

    def __post_init__(self):
        if self.v_lower.shape != self.v_upper.shape:
            raise ProblemError("bound vectors must have matching shapes")
        if not np.all((0 < self.v_lower) & (self.v_lower < self.v_upper) & (self.v_upper < np.inf)):
            raise ProblemError("need 0 < v_lower < v_upper < inf componentwise")

    @staticmethod
    def from_magnitudes(n: int, v_min: float, v_max: float) -> "VoltageBounds":
        """Uniform bounds given as magnitudes; squared on load."""
        if not 0 < v_min < v_max < math.inf:
            raise ProblemError(
                f"need 0 < vmin < vmax < inf, got vmin={v_min!r}, vmax={v_max!r}"
            )
        return VoltageBounds(
            v_lower=np.full(n, float(v_min) ** 2),
            v_upper=np.full(n, float(v_max) ** 2),
        )


@dataclass(frozen=True)
class DualState:
    mu_upper: np.ndarray
    mu_lower: np.ndarray

    def __post_init__(self):
        if not all(np.all((0 <= mu) & (mu < np.inf)) for mu in (self.mu_upper, self.mu_lower)):
            raise ProblemError("dual variables must be nonnegative and finite")

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
        for name in ("step_primal", "step_dual", "eta", "residual_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ProblemError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.step_primal <= 0 or self.step_dual <= 0 or self.eta <= 0:
            raise ProblemError("stepsizes and eta must be positive")
        if self.max_iters < 0:
            raise ProblemError("max_iters must be nonnegative")
        if self.residual_tol < 0:
            raise ProblemError("residual_tol must be nonnegative")


def _half(stacked: str, k: int) -> cached_property:
    """A read-only view of half k of the stacked array field named stacked."""
    def get(self) -> np.ndarray:
        z = getattr(self, stacked)
        view = z[k * len(z) // 2:(k + 1) * len(z) // 2]
        view.flags.writeable = False
        return view
    return cached_property(get)


@dataclass(frozen=True)
class Problem:
    """Vectorized problem data over the flat index space.

    The primal data is held once, stacked over z = [p; q]: preferences z0,
    deviation weights w and the box [z_min, z_max]. p0, q0, p_min, p_max,
    q_min, q_max, w_p and w_q are read-only views of their halves.
    Indices without a device hold fixed background injections, modeled as
    singleton boxes so every flat index has well-defined decision variables.
    """

    net: Network
    devices: tuple[Device, ...]
    bounds: VoltageBounds
    z0: np.ndarray = field(repr=False)       # preferences / fixed injections
    w: np.ndarray = field(repr=False)        # quadratic deviation weights
    z_min: np.ndarray = field(repr=False)
    z_max: np.ndarray = field(repr=False)
    device_index: np.ndarray = field(repr=False)  # flat indices carrying devices

    p0, q0 = _half("z0", 0), _half("z0", 1)
    p_min, q_min = _half("z_min", 0), _half("z_min", 1)
    p_max, q_max = _half("z_max", 0), _half("z_max", 1)
    w_p, w_q = _half("w", 0), _half("w", 1)

    @property
    def n(self) -> int:
        return self.net.n_flat

    def objective(self, p: np.ndarray, q: np.ndarray) -> float:
        """Total deviation cost; fixed indices contribute exactly zero."""
        return float((self.w_p * (p - self.p0) ** 2 + self.w_q * (q - self.q0) ** 2).sum())


def make_problem(
    net: Network,
    sens: SensitivityMatrices | None,
    devices: list[Device],
    background: dict[tuple[int, str], tuple[float, float]] | None = None,
    v_min: float = V_MIN,
    v_max: float = V_MAX,
) -> Problem:
    """Assemble a Problem; background maps (bus, phase) to fixed (p, q).

    sens is not used; a Problem holds no sensitivities. The parameter stays
    for callers that still pass it.
    """
    n = net.n_flat
    z0 = np.zeros(2 * n)
    held = np.zeros(n, dtype=np.int8)  # 1 at a background injection, 2 at a device
    for (bus, ph), (pv, qv) in (background or {}).items():
        idx = net.flat_index(bus, ph)
        if held[idx]:
            raise ProblemError(f"duplicate background injection at bus {bus} phase {ph}")
        if not (math.isfinite(pv) and math.isfinite(qv)):
            raise ProblemError(f"non-finite background injection at {bus}:{ph}")
        held[idx] = 1
        z0[idx], z0[n + idx] = pv, qv
    z_min, z_max = z0.copy(), z0.copy()
    w = np.ones(2 * n)
    for dev in devices:
        idx = net.flat_index(dev.bus, dev.phase)
        if held[idx] == 2:
            raise ProblemError(f"two devices at bus {dev.bus} phase {dev.phase}")
        if held[idx]:
            raise ProblemError(
                f"bus {dev.bus} phase {dev.phase} has both a device and a background load"
            )
        held[idx] = 2
        z0[idx], z0[n + idx] = dev.p0, dev.q0
        z_min[idx], z_min[n + idx] = dev.p_min, dev.q_min
        z_max[idx], z_max[n + idx] = dev.p_max, dev.q_max
        w[idx], w[n + idx] = dev.w_p, dev.w_q
    bounds = VoltageBounds.from_magnitudes(n, v_min, v_max)
    return Problem(
        net=net, devices=tuple(devices), bounds=bounds, z0=z0, w=w, z_min=z_min, z_max=z_max,
        device_index=np.flatnonzero(held == 2),
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


def primal_step(problem: Problem, z: np.ndarray, g: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """The projected gradient step on the setpoints z = [p; q].

    g is the coupling term [g_p; g_q] (anything that broadcasts to z); the
    cost gradient is 2 w (z - z0), and the step is clamped to the box.
    """
    return np.minimum(
        np.maximum(z - cfg.step_primal * (2.0 * (problem.w * (z - problem.z0)) + g), problem.z_min),
        problem.z_max,
    )


def update_size(
    z: np.ndarray, z_new: np.ndarray, duals: DualState, duals_new: DualState, cfg: SolverConfig
) -> float:
    """Infinity norm of one primal-dual update, each half over its step size."""
    # np.maximum propagates a NaN, where Python's max may drop it.
    return float(np.maximum(
        np.abs(z - z_new).max(initial=0.0) / cfg.step_primal,
        np.maximum(
            np.abs(duals.mu_upper - duals_new.mu_upper).max(initial=0.0),
            np.abs(duals.mu_lower - duals_new.mu_lower).max(initial=0.0),
        ) / cfg.step_dual,
    ))


def saddle_residual(
    problem: Problem, p: np.ndarray, q: np.ndarray, duals: DualState, v: np.ndarray,
    cfg: SolverConfig, g_p: np.ndarray, g_q: np.ndarray,
) -> float:
    """Infinity norm of the projected-gradient fixed-point map.

    Zero exactly at the saddle point of the regularized Lagrangian. The
    coupling terms g_p = R^T d and g_q = X^T d, with d = mu_upper - mu_lower,
    may come from any engine.
    """
    z = np.concatenate([p, q])
    z_new = primal_step(problem, z, np.concatenate([g_p, g_q]), cfg)
    return update_size(z, z_new, duals, dual_update(duals, v, problem.bounds, cfg), cfg)


def violation_extents(v: np.ndarray, bounds: VoltageBounds) -> tuple[float, float]:
    """Worst upper and lower squared-voltage bound violations (0 if none)."""
    over = float((v - bounds.v_upper).max(initial=-np.inf))
    under = float((bounds.v_lower - v).max(initial=-np.inf))
    return max(0.0, over), max(0.0, under)


# -- document I/O ---------------------------------------------------------

def _read_device(entry: dict) -> Device:
    document_keys(entry, ("bus", "phase", "p0", "q0", "pmin", "pmax", "qmin", "qmax", "wp", "wq"),
                  "entry")
    return Device(
        bus=document_id(entry["bus"]),
        phase=document_phase(entry["phase"]),
        p0=json_number(entry["p0"]),
        q0=json_number(entry["q0"]),
        p_min=json_number(entry["pmin"]),
        p_max=json_number(entry["pmax"]),
        q_min=json_number(entry["qmin"]),
        q_max=json_number(entry["qmax"]),
        w_p=json_number(entry.get("wp", Device.w_p)),
        w_q=json_number(entry.get("wq", Device.w_q)),
    )


def _read_background(entry: dict) -> tuple[tuple[int, str], tuple[float, float]]:
    document_keys(entry, ("bus", "phase", "p", "q"), "entry")
    key = (document_id(entry["bus"]), document_phase(entry["phase"]))
    return key, (json_number(entry["p"]), json_number(entry["q"]))


def load_problem(
    document: dict | str | Path, net: Network, sens: SensitivityMatrices | None
) -> Problem:
    """Build a Problem from the device document schema.

    Phases are read by document_phase; sens is not used, as in make_problem, and may be None.
    A key outside the schema, or a second background entry at one bus and
    phase, is rejected.
    """
    document = document_keys(
        read_document(document, "device"), ("devices", "background", "vmin", "vmax"),
        "device document",
    )
    devices = document_entries(document, "devices", "device", "device", _read_device, ProblemError)
    background = {}
    for key, injection in document_entries(
        document, "background", "device", "background", _read_background, ProblemError
    ):
        if key in background:
            raise ProblemError("duplicate background entry at %d:%s" % key)
        background[key] = injection
    return make_problem(
        net, sens, devices, background,
        v_min=document_number(document, "vmin", V_MIN, "device"),
        v_max=document_number(document, "vmax", V_MAX, "device"),
    )
