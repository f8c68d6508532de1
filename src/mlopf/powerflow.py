"""Nonlinear unbalanced power flow on the radial network.

A backward/forward sweep with constant-power injections: backward passes
aggregate branch currents from the leaves toward the substation, forward
passes propagate voltage drops across the line impedance matrices from the
substation outward, and the loop runs until the complex power implied by
the final phasors matches the specified injections everywhere. Both passes
are O(N) tree sums over Network.forest, one column per flat index. The
loop starts from the flat profile, or from given phasors such as the
solution at nearby injections; the stopping test is the same either way.
Acts as the nonlinear counterpart of the linear voltage update in feedback
mode and as the yardstick for linearization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network
from .sensitivity import OMEGA_POW, SensitivityMatrices, voltage_linear


class SweepError(RuntimeError):
    """Sweep did not converge or hit a singular operating point."""


SWEEP_TOL = 1e-8     # default bound on the power mismatch, p.u.
MAX_SWEEPS = 100     # sweeps before a solve gives up


@dataclass(frozen=True)
class VoltageSolution:
    phasors: np.ndarray      # complex phasors over the flat index space, p.u.
    v: np.ndarray            # squared magnitudes, p.u.^2
    iterations: int
    max_mismatch: float      # worst complex power mismatch, p.u.


def backward_forward_sweep(
    net: Network,
    p: np.ndarray,
    q: np.ndarray,
    tol: float = SWEEP_TOL,
    start: np.ndarray | None = None,
) -> VoltageSolution:
    """Solve nonlinear power flow for the given injections.

    p and q are real/reactive injections over the flat index space
    (negative values are loads). Each sweep is two tree sums over the
    columns of Network.forest: the backward pass takes subtree sums of the
    injected currents, which gives every line's current at each phase, and
    the forward pass takes ancestor sums of the line drops, each line's
    same-phase term and its cross-phase pairs' terms, which gives every
    index's voltage below the substation. Sums run in a fixed order, so
    identical inputs give bitwise identical solutions.

    tol bounds the power mismatch |V conj(I_old) - s| at every flat index,
    where I_old is the current the last sweep drew; it does not bound the
    voltage error. The mismatch is an index's own load times its last
    voltage change, so at lightly loaded indices the voltage can still be
    further off: on a 3,000-bus chain drawing 1e-4 p.u. real and 5e-5 p.u.
    reactive power per bus, a flat start stopped at tol 1e-8 gives squared
    voltages up to 1.6e-6 from a tol 1e-13 solution. A solve still above
    tol after MAX_SWEEPS sweeps raises SweepError.

    start, if given, is a complex phasor vector over the flat index space
    that the first sweep draws its currents from in place of the flat
    profile; a converged solution at nearby injections needs fewer sweeps.
    The stopping test does not change, so a warm-started solution meets
    the same tolerance.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != (net.n_flat,) or q.shape != (net.n_flat,):
        raise ValueError(f"injection vectors must have shape ({net.n_flat},)")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("injections must be finite")

    # Sweeps run over the forest's columns; phasors return to flat order at the end.
    forest = net.forest
    s = (p + 1j * q)[forest.idx]
    # Flat start: substation magnitude with 0 / -120 / +120 degree angles.
    ref = np.sqrt(net.base_v_squared) * OMEGA_POW[2 + net.flat_phase[forest.idx]]
    if start is None:
        volt = ref
    else:
        volt = np.asarray(start, dtype=np.complex128)
        if volt.shape != (net.n_flat,):
            raise ValueError(f"start phasors must have shape ({net.n_flat},)")
        if not np.all(np.isfinite(volt)):
            raise ValueError("start phasors must be finite")
        volt = volt[forest.idx]

    mismatch = np.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        if np.any(np.abs(volt) < 1e-9):
            raise SweepError("zero voltage encountered; operating point is singular")
        # Backward: each line carries minus the current its subtree injects.
        drawn = np.conj(s / volt)
        injected = forest.subtree_sums(drawn[None])
        # Forward: each bus sits below the substation by the drops across
        # the line impedance matrices on its root path.
        rise = forest.line(forest.z_line[None], forest.z_pair[None], injected)
        volt = ref + forest.ancestor_sums(rise[None])[0]
        # Power implied by the new phasors and the currents just used.
        mismatch = float(np.max(np.abs(volt * np.conj(drawn) - s), initial=0.0))
        if mismatch < tol:
            phasors = np.empty_like(volt)
            phasors[forest.idx] = volt
            return VoltageSolution(
                phasors=phasors,
                v=np.abs(phasors) ** 2,
                iterations=sweep,
                max_mismatch=mismatch,
            )
    raise SweepError(
        f"no convergence after {MAX_SWEEPS} sweeps "
        f"(power mismatch {mismatch:.3e} p.u.); loading may be excessive"
    )


@dataclass(frozen=True)
class ModelDivergence:
    """Per-index gap between nonlinear and linearized squared voltages."""

    v_linear: np.ndarray
    v_nonlinear: np.ndarray
    diff: np.ndarray         # v_nonlinear - v_linear
    max_abs: float
    rms: float
    sweep: VoltageSolution


def compare_models(
    net: Network,
    sens: SensitivityMatrices,
    p: np.ndarray,
    q: np.ndarray,
) -> ModelDivergence:
    """Run both voltage models at the same injections and report the gap."""
    sol = backward_forward_sweep(net, p, q)
    v_lin = voltage_linear(sens, p, q)
    diff = sol.v - v_lin
    return ModelDivergence(
        v_linear=v_lin,
        v_nonlinear=sol.v,
        diff=diff,
        max_abs=float(np.max(np.abs(diff), initial=0.0)),
        rms=float(np.sqrt(np.mean(diff**2))) if len(diff) else 0.0,
        sweep=sol,
    )
