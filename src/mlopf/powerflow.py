"""Nonlinear unbalanced power flow on the radial network.

A backward/forward sweep with constant-power injections: backward passes
aggregate branch currents from the leaves toward the substation, forward
passes propagate voltage drops across the line impedance matrices from the
substation outward, and the loop runs until the complex power implied by
the final phasors matches the specified injections everywhere. Both passes
are O(N) tree sums over the network's DFS columns. The loop starts from the
flat profile, or from given phasors such as the solution at nearby
injections; the stopping test is the same either way. Acts as the
nonlinear counterpart of the linear voltage update in feedback mode and as
the yardstick for linearization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network
from .sensitivity import OMEGA, SensitivityMatrices, voltage_linear


class SweepError(RuntimeError):
    """Sweep did not converge or hit a singular operating point."""


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
    tol: float = 1e-8,
    max_sweeps: int = 100,
    start: np.ndarray | None = None,
) -> VoltageSolution:
    """Solve nonlinear power flow for the given injections.

    p and q are real/reactive injections over the flat index space
    (negative values are loads). Each sweep is two tree sums over the DFS
    columns of the network: the backward pass takes subtree sums of the
    injected currents, which gives every line's current, and the forward
    pass takes ancestor sums of the line drops, which gives every bus's
    voltage below the substation. Sums run in a fixed order, so identical
    inputs give bitwise identical solutions.

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

    s = p + 1j * q
    cells = net.flat_cell
    # Flat start: substation magnitude with 0 / -120 / +120 degree angles.
    ref = np.sqrt(net.base_v_squared) * np.array([[1.0], [OMEGA], [OMEGA * OMEGA]])
    if start is None:
        volt = ref[net.flat_phase, 0]
    else:
        volt = np.asarray(start, dtype=np.complex128)
        if volt.shape != (net.n_flat,):
            raise ValueError(f"start phasors must have shape ({net.n_flat},)")
        if not np.all(np.isfinite(volt)):
            raise ValueError("start phasors must be finite")
    inj = np.zeros((3, net.n_buses), dtype=np.complex128)

    mismatch = np.inf
    for sweep in range(1, max_sweeps + 1):
        if np.any(np.abs(volt) < 1e-9):
            raise SweepError("zero voltage encountered; operating point is singular")
        # Backward: each line carries minus the current its subtree injects.
        drawn = np.conj(s / volt)
        inj.reshape(-1)[cells] = drawn
        injected = net.subtree_sums(inj)
        # Forward: each bus sits below the substation by the drops across
        # the line impedance matrices on its root path.
        rise = (net.z_line_dfs * injected[None]).sum(axis=1)
        volt = (ref + net.ancestor_sums(rise)).reshape(-1)[cells]
        # Power implied by the new phasors and the currents just used.
        mismatch = float(np.max(np.abs(volt * np.conj(drawn) - s), initial=0.0))
        if mismatch < tol:
            return VoltageSolution(
                phasors=volt,
                v=np.abs(volt) ** 2,
                iterations=sweep,
                max_mismatch=mismatch,
            )
    raise SweepError(
        f"no convergence after {max_sweeps} sweeps "
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
    tol: float = 1e-8,
    max_sweeps: int = 100,
) -> ModelDivergence:
    """Run both voltage models at the same injections and report the gap."""
    sol = backward_forward_sweep(net, p, q, tol=tol, max_sweeps=max_sweeps)
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
