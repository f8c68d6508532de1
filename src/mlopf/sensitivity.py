"""Linearized voltage model: v = R p + X q + v_tilde.

v collects squared voltage magnitudes over the flat (bus, phase) index
space. Each matrix entry reduces to a common-path impedance rotated by a
signed power of the 120-degree phasor omega and projected to its real or
imaginary part, so building the dense matrices is one vectorized gather
at the pairwise lowest common ancestors, which Network.lca_table lays out
for all buses at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, phase_code

OMEGA = complex(np.exp(-2j * np.pi / 3))

# Signed powers omega**k for k in -2..2, indexed by k + 2. Negative powers
# are stored as conjugates so omega**-k == conj(omega**k) holds exactly.
OMEGA_POW = np.array(
    [
        np.conj(OMEGA * OMEGA),
        np.conj(OMEGA),
        1.0 + 0.0j,
        OMEGA,
        OMEGA * OMEGA,
    ],
    dtype=np.complex128,
)


def omega_power(k: int) -> complex:
    """omega**k for a signed phase-code difference k in -2..2."""
    return complex(OMEGA_POW[k + 2])


@dataclass(frozen=True)
class SensitivityMatrices:
    """Dense sensitivities of squared voltage magnitudes to injections."""

    r: np.ndarray        # N x N, d v / d p
    x: np.ndarray        # N x N, d v / d q
    v_tilde: np.ndarray  # length N, zero-injection squared magnitudes

    @property
    def n(self) -> int:
        return self.v_tilde.shape[0]


def _rotated_parts(z_re, z_im, w_re, w_im):
    """Real and imaginary parts of conj(z) * w, in plain float arithmetic.

    Kept as separate float multiplies and adds (no complex type) so the
    scalar entry functions and the vectorized dense build round identically;
    numpy's fused complex kernels would differ in the last ulp.
    """
    re = z_re * w_re + z_im * w_im
    im = z_re * w_im - z_im * w_re
    return re, im


def dv_dp_entry(net: Network, i: int, phi: str | int, j: int, psi: str | int) -> float:
    """Sensitivity of bus i phase phi squared voltage to bus j phase psi real power."""
    re, _ = _entry_parts(net, i, phi, j, psi)
    return 2.0 * re


def dv_dq_entry(net: Network, i: int, phi: str | int, j: int, psi: str | int) -> float:
    """Sensitivity of bus i phase phi squared voltage to bus j phase psi reactive power."""
    _, im = _entry_parts(net, i, phi, j, psi)
    return -2.0 * im


def _entry_parts(net, i, phi, j, psi) -> tuple[float, float]:
    a, b = phase_code(phi), phase_code(psi)
    net.flat_index(i, a)  # raises if the phase is absent at the bus
    net.flat_index(j, b)
    z = net.common_path_impedance(i, j, a, b)
    w = omega_power(a - b)
    re, im = _rotated_parts(z.real, z.imag, w.real, w.imag)
    return float(re), float(im)


def build_sensitivity(net: Network) -> SensitivityMatrices:
    """Materialize the dense N x N sensitivity matrices and v_tilde.

    Entry (a, b) with a = (i, phi), b = (j, psi) is the rotated conjugate
    common-path impedance of buses i, j at phase pair (phi, psi). v_tilde is
    the flat profile at the substation's squared magnitude: with losses
    neglected, zero injections leave every bus at the reference voltage.
    """
    n = net.n_flat
    bus = net.flat_bus_pos
    ph = net.flat_phase
    rows, table = net.lca_table(bus)
    lca = table[rows[:, None], rows[None, :]]
    # Drop each index table once gathered; on large feeders they set the peak.
    del table
    z = net.z_prefix[lca, ph[:, None], ph[None, :]]
    del lca
    w = OMEGA_POW[ph[:, None] - ph[None, :] + 2]
    re, im = _rotated_parts(z.real, z.imag, w.real, w.imag)
    v_tilde = np.full(n, net.base_v_squared, dtype=np.float64)
    return SensitivityMatrices(r=2.0 * re, x=-2.0 * im, v_tilde=v_tilde)


def voltage_linear(sens: SensitivityMatrices, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared voltage magnitudes under the linearized model."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != (sens.n,) or q.shape != (sens.n,):
        raise ValueError(
            f"injection vectors must have shape ({sens.n},), got {p.shape} and {q.shape}"
        )
    return sens.r @ p + sens.x @ q + sens.v_tilde
