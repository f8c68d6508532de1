"""Linearized voltage model: v = R p + X q + v_tilde.

v collects squared voltage magnitudes over the flat (bus, phase) index
space. Each matrix entry reduces to a common-path impedance rotated by a
signed power of the 120-degree phasor omega and projected to its real or
imaginary part. On a radial feeder that product is a tree sweep:
voltage_linear takes subtree sums of the injections, rotates them through
each line's impedance and takes ancestor sums of the result, in O(N) over
the DFS columns of Network and without the matrices. The dense R and X
that build_sensitivity materializes, by a gather at the pairwise lowest
common ancestors of Network.lca_table, stay as the oracle the sweep is
tested against and as the operands of the flat coupling engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# omega**(phi - psi) at [phi, psi], the rotation of each phase pair.
OMEGA_PAIR = OMEGA_POW[np.arange(3)[:, None] - np.arange(3)[None, :] + 2]

# Rows of R and X filled per block in build_sensitivity.
_BLOCK_ROWS = 256


def omega_power(k: int) -> complex:
    """omega**k for a signed phase-code difference k in -2..2."""
    return complex(OMEGA_POW[k + 2])


@dataclass(frozen=True)
class SensitivityMatrices:
    """Dense sensitivities of squared voltage magnitudes to injections.

    Carries the network as well, which is all voltage_linear reads.
    """

    r: np.ndarray        # N x N, d v / d p
    x: np.ndarray        # N x N, d v / d q
    v_tilde: np.ndarray  # length N, zero-injection squared magnitudes
    net: Network = field(repr=False)  # the feeder voltage_linear sweeps

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
    common-path impedance of buses i, j at phase pair (phi, psi). Those
    values are computed once per bus and phase pair, and each entry is a
    gather from that table at 9 lca(i, j) + 3 phi + psi. v_tilde is the
    flat profile at the substation's squared magnitude: with losses
    neglected, zero injections leave every bus at the reference voltage.
    The matrices are filled in blocks of rows, so no N x N temporary is
    ever held beside them.
    """
    n = net.n_flat
    ph = net.flat_phase.astype(np.int32)
    z = net.z_prefix
    re, im = _rotated_parts(z.real, z.imag, OMEGA_PAIR.real, OMEGA_PAIR.imag)
    r_pairs = (2.0 * re).ravel()
    x_pairs = (-2.0 * im).ravel()
    rows, table = net.lca_table(net.flat_bus_pos)
    table *= 9
    r = np.empty((n, n), dtype=np.float64)
    x = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        k = np.take(table[rows[lo:hi]], rows, axis=1)
        k += 3 * ph[lo:hi, None] + ph
        np.take(r_pairs, k, out=r[lo:hi])
        np.take(x_pairs, k, out=x[lo:hi])
    v_tilde = np.full(n, net.base_v_squared, dtype=np.float64)
    return SensitivityMatrices(r=r, x=x, v_tilde=v_tilde, net=net)


def voltage_linear(sens: SensitivityMatrices, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared voltage magnitudes under the linearized model.

    Equal to R p + X q + v_tilde, computed in O(N) by two tree sums and
    without reading R or X. Per line and phase psi, the conjugated subtree
    sum of s = p + jq rotated by omega**psi is the current a sweep from the
    flat profile would carry; z_line times it is the line's drop. With t
    the ancestor-or-self sum of Re(omega**-phi drop), v = v_tilde + 2 t:
    a pair (i, j) shares exactly the lines above both, which is the
    common-path impedance of the dense entry.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != (sens.n,) or q.shape != (sens.n,):
        raise ValueError(
            f"injection vectors must have shape ({sens.n},), got {p.shape} and {q.shape}"
        )
    net = sens.net
    s_conj = np.zeros((3, net.n_buses), dtype=np.complex128)
    s_conj.reshape(-1)[net.flat_cell] = p - 1j * q
    current = OMEGA_POW[2:, None] * net.subtree_sums(s_conj)
    drop = (net.z_line_dfs * current[None]).sum(axis=1)
    t = net.ancestor_sums((OMEGA_POW[2::-1, None] * drop).real)
    return sens.v_tilde + 2.0 * t.reshape(-1)[net.flat_cell]
