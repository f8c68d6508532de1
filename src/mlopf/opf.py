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

from .documents import (
    PHASE_NAME, NetworkError, document_columns, document_keys, document_number, id_column,
    number_column, phase_column, raise_first, read_document,
)
from .network import Network
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
        raise_first(device_checks(
            [self.bus], self.p0, self.q0, self.p_min, self.p_max, self.q_min, self.q_max,
            self.w_p, self.w_q,
        ), ProblemError)


def device_checks(bus, p0, q0, p_min, p_max, q_min, q_max, w_p, w_q) -> list:
    """raise_first's checks of device boxes, over arrays or one device's numbers.

    The box is bounded and nonempty and holds the preference, and both
    weights are positive and finite. Written with comparisons alone, so
    one device's check costs no array.
    """
    at = lambda i: f"device at bus {bus[i]}"
    unbounded = lambda x: (x != x) | (abs(x) == np.inf)
    outside = lambda x, lo, hi: (x != x) | (x < lo) | (x > hi)
    unweighted = lambda x: (x != x) | (x <= 0) | (x == np.inf)
    return [
        (unbounded(p_min) | unbounded(p_max) | unbounded(q_min) | unbounded(q_max),
         lambda i: f"{at(i)}: box must be bounded"),
        ((p_min > p_max) | (q_min > q_max), lambda i: f"{at(i)}: empty box"),
        (outside(p0, p_min, p_max) | outside(q0, q_min, q_max),
         lambda i: f"{at(i)}: preference outside its box"),
        (unweighted(w_p) | unweighted(w_q),
         lambda i: f"{at(i)}: weights must be positive and finite"),
    ]


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
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
                raise ProblemError(f"{name} must be a finite number, got {value!r}")
        if self.step_primal <= 0 or self.step_dual <= 0 or self.eta <= 0:
            raise ProblemError("stepsizes and eta must be positive")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ProblemError(f"max_iters must be an integer, got {self.max_iters!r}")
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

    @cached_property
    def devices(self) -> tuple[Device, ...]:
        """Every device as a Device record, in flat index order."""
        i, n, net = self.device_index, self.n, self.net
        values = (
            self.z0[i], self.z0[n + i], self.z_min[i], self.z_max[i],
            self.z_min[n + i], self.z_max[n + i], self.w[i], self.w[n + i],
        )
        return tuple(
            Device(*fields) for fields in zip(
                net.ids[net.flat_bus_pos[i]].tolist(),
                [PHASE_NAME[c] for c in net.flat_phase[i].tolist()],
                *(v.tolist() for v in values),
            )
        )

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

    The records are written as a device document (devices_document) and
    read by load_problem, so a record is accepted or rejected as its
    document entry is, with its message. sens is not used; a Problem holds
    no sensitivities. The parameter stays for callers that still pass it.
    """
    return load_problem(devices_document(devices, background or {}, v_min, v_max), net, sens)


def _problem(net: Network, devices, background, v_min: float, v_max: float) -> Problem:
    """Check and assemble a Problem from load_problem's columns.

    devices is (bus ids, phase codes, values): values stacks z0, z_min,
    z_max and w, each a (2, m) array over [p; q], whose boxes the device
    document reader has checked by device_checks. background is (bus ids,
    phase codes, injections), injections a (2, k) array, at most one entry
    per bus and phase. Each background entry, then each device, must name
    a bus and phase of net; a background injection is finite, and a device
    holds its flat index alone.
    """
    n = net.n_flat

    def lookup(bus, phase):
        pos = net.bus_positions(bus)
        idx = np.where(pos < 0, -1, net.index_of[pos, phase])
        return idx, [
            (pos < 0, lambda i: NetworkError(f"unknown bus id {bus[i]}")),
            ((pos >= 0) & (idx < 0), lambda i: NetworkError(
                f"bus {bus[i]} does not carry phase {PHASE_NAME[phase[i]]}")),
        ]

    bus, phase, injections = background
    fixed, checks = lookup(bus, phase)
    raise_first(checks + [
        (~np.isfinite(injections).all(axis=0),
         lambda i: f"non-finite background injection at {bus[i]}:{PHASE_NAME[phase[i]]}"),
    ], ProblemError)
    bus, phase, values = devices
    idx, checks = lookup(bus, phase)
    again = np.ones(len(idx), dtype=bool)
    again[np.unique(idx, return_index=True)[1]] = False
    at = lambda i: f"bus {bus[i]} phase {PHASE_NAME[phase[i]]}"
    raise_first(checks + [
        (again, lambda i: f"two devices at {at(i)}"),
        (np.isin(idx, fixed), lambda i: f"{at(i)} has both a device and a background load"),
    ], ProblemError)
    bounds = VoltageBounds.from_magnitudes(n, v_min, v_max)

    z0 = np.zeros(2 * n)
    z0[np.concatenate([fixed, n + fixed])] = injections.ravel()
    z_min, z_max, w = z0.copy(), z0.copy(), np.ones(2 * n)
    for array, value in zip((z0, z_min, z_max, w), values):
        array[np.concatenate([idx, n + idx])] = value.ravel()
    held = np.zeros(n, dtype=bool)
    held[idx] = True
    return Problem(
        net=net, bounds=bounds, z0=z0, w=w, z_min=z_min, z_max=z_max,
        device_index=np.flatnonzero(held),
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

def devices_document(
    devices: list[Device], background: dict[tuple[int, str], tuple[float, float]],
    v_min: float = V_MIN, v_max: float = V_MAX,
) -> dict:
    """The device document of Device records and a background map, in the map's order."""
    return {
        "devices": [{
            "bus": d.bus, "phase": d.phase, "p0": d.p0, "q0": d.q0, "pmin": d.p_min,
            "pmax": d.p_max, "qmin": d.q_min, "qmax": d.q_max, "wp": d.w_p, "wq": d.w_q,
        } for d in devices],
        "background": [
            {"bus": bus, "phase": ph, "p": p, "q": q} for (bus, ph), (p, q) in background.items()
        ],
        "vmin": v_min, "vmax": v_max,
    }


def load_problem(
    document: dict | str | Path, net: Network, sens: SensitivityMatrices | None
) -> Problem:
    """Build a Problem from the device document schema.

    Entries are read by document_columns straight into the columns that
    _problem checks, each device's box by device_checks; sens is not used
    and may be None. A key outside the schema, or a second background
    entry at one bus and phase, is rejected.
    """
    document = document_keys(
        read_document(document, "device"), ("devices", "background", "vmin", "vmax"),
        "device document",
    )
    devices = document_columns(document, "devices", "device", "device", {
        "bus": id_column, "phase": phase_column, "p0": number_column, "q0": number_column,
        "pmin": number_column, "pmax": number_column, "qmin": number_column,
        "qmax": number_column, "wp": (number_column, Device.w_p),
        "wq": (number_column, Device.w_q),
    }, ProblemError, checks=lambda c: device_checks(c["bus"], *(
        c[key] for key in ("p0", "q0", "pmin", "pmax", "qmin", "qmax", "wp", "wq")
    )))
    background = document_columns(document, "background", "device", "background", {
        "bus": id_column, "phase": phase_column, "p": number_column, "q": number_column,
    }, ProblemError)
    bus, phase = background["bus"], background["phase"]
    by_key = np.lexsort((phase, bus))
    later, first = by_key[1:], by_key[:-1]
    again = np.zeros(len(bus), dtype=bool)
    again[later] = (bus[later] == bus[first]) & (phase[later] == phase[first])
    raise_first([
        (again, lambda i: f"duplicate background entry at {bus[i]}:{PHASE_NAME[phase[i]]}"),
    ], ProblemError)
    v_min = document_number(document, "vmin", V_MIN, "device")
    v_max = document_number(document, "vmax", V_MAX, "device")
    return _problem(
        net, (devices["bus"], devices["phase"], _device_values(devices)),
        (bus, phase, np.stack([background["p"], background["q"]])), v_min, v_max,
    )


def _device_values(columns: dict) -> np.ndarray:
    """z0, z_min, z_max and w of device document columns, each (2, m) over [p; q]."""
    return np.array([
        [columns["p0"], columns["q0"]], [columns["pmin"], columns["qmin"]],
        [columns["pmax"], columns["qmax"]], [columns["wp"], columns["wq"]],
    ])
