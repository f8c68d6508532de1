"""Linearized voltage model: v = R p + X q + v_tilde.

v collects squared voltage magnitudes over the flat (bus, phase) index
space. Each matrix entry reduces to a common-path impedance rotated by a
signed power of the 120-degree phasor omega and projected to its real or
imaginary part. On a radial feeder that product is a tree sweep:
voltage_linear takes subtree sums of the injections, rotates them through
each line's impedance and takes ancestor sums of the result, in O(N) over
the DFS columns of Network and without the matrices. adjoint_sweep runs
the same sums in reverse for R^T d and X^T d; a multilevel scope with a
large remainder computes its whole share of the product with it. The
dense R and X that build_sensitivity materializes, each row a copy of
its parent bus's row with the bus's own pair values over its subtree,
stay as the oracle the sweeps are tested against and as the operands of
the flat coupling engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .network import OMEGA, OMEGA_POW, Forest, Network, phase_code, rotated_pairs  # noqa: F401


@dataclass(frozen=True)
class SensitivityMatrices:
    """Dense sensitivities of squared voltage magnitudes to injections.

    Carries the network as well, which is all voltage_linear reads. A
    matrix-free instance (see matrix_free_sensitivity) has r = x = None.
    """

    r: np.ndarray | None  # N x N, d v / d p; None when matrix-free
    x: np.ndarray | None  # N x N, d v / d q; None when matrix-free
    v_tilde: np.ndarray  # length N, zero-injection squared magnitudes
    net: Network = field(repr=False)  # the feeder voltage_linear sweeps

    @property
    def n(self) -> int:
        return self.v_tilde.shape[0]


def dv_dp_entry(net: Network, i: int, phi: str | int, j: int, psi: str | int) -> float:
    """Sensitivity of bus i phase phi squared voltage to bus j phase psi real power."""
    return _entry(net, i, phi, j, psi, 0)


def dv_dq_entry(net: Network, i: int, phi: str | int, j: int, psi: str | int) -> float:
    """Sensitivity of bus i phase phi squared voltage to bus j phase psi reactive power."""
    return _entry(net, i, phi, j, psi, 1)


def _entry(net, i, phi, j, psi, part: int) -> float:
    """Part 0 (R) or 1 (X) of the rotated pairs of buses i and j, at (phi, psi)."""
    a, b = phase_code(phi), phase_code(psi)
    net.flat_index(i, a)  # raises if the phase is absent at the bus
    net.flat_index(j, b)
    return float(rotated_pairs(net.common_path_matrix(i, j))[part, a, b])


def build_sensitivity(net: Network) -> SensitivityMatrices:
    """Materialize the dense N x N sensitivity matrices and v_tilde.

    Entry (a, b) with a = (i, phi), b = (j, psi) is the rotated conjugate
    common-path impedance of buses i, j at phase pair (phi, psi), from
    rotated_pairs of Network.z_prefix, as the scope blocks are. Row a is
    built from its parent row: outside i's subtree, lca(i, j) =
    lca(parent(i), j), so the row copies row (parent(i), phi), which
    exists because phases only drop moving away from the substation;
    inside the subtree every column meets i at i and takes i's own pair
    value. Rows of depth-1 buses start
    from the substation's pair values. The rows are filled one depth
    level at a time: each row of the level is copied on its own, then one
    scatter covers the level's subtrees' columns, which are contiguous once
    the flat indices are sorted into DFS order. Beside R and X the build
    holds only O(N) index arrays per level. v_tilde is the flat profile at
    the substation's squared magnitude: with losses neglected, zero
    injections leave every bus at the reference voltage.
    """
    n = net.n_flat
    ph = net.flat_phase
    r_pairs, x_pairs = rotated_pairs(net.z_prefix[net.order]).reshape(2, -1)
    # Flat indices in DFS order; the subtree of DFS column t holds the
    # entries dfs[first[t] : first[t + size]].
    held = net.index_of[net.order]
    dfs = held[held >= 0]
    first = np.zeros(net.n_buses + 1, dtype=np.int64)
    np.cumsum((held >= 0).sum(axis=1), out=first[1:])
    col = net.tin[net.flat_bus_pos]
    start = first[col]
    stop = first[col + net.size[net.flat_bus_pos]]
    depth = net.depth[net.flat_bus_pos]
    rows = np.argsort(depth, kind="stable")
    bounds = np.cumsum(np.bincount(depth))
    up = net.index_of[net.parent_pos[net.flat_bus_pos], ph]
    r = np.empty((n, n), dtype=np.float64)
    x = np.empty((n, n), dtype=np.float64)
    # Depth-1 rows copy their phase's row of the substation's pair values.
    r_top = r_pairs[:9].reshape(3, 3)[:, ph]
    x_top = x_pairs[:9].reshape(3, 3)[:, ph]
    for d in range(1, int(net.depth.max()) + 1):
        level = rows[bounds[d - 1]:bounds[d]]
        r_from, x_from, src = (r_top, x_top, ph) if d == 1 else (r, x, up)
        for a, b in zip(level.tolist(), src[level].tolist()):
            r[a] = r_from[b]
            x[a] = x_from[b]
        # Each row's subtree columns, concatenated row by row.
        counts = stop[level] - start[level]
        ends = np.cumsum(counts)
        cols = dfs[np.arange(ends[-1]) + np.repeat(start[level] + counts - ends, counts)]
        at = np.repeat(level, counts)
        pair = np.repeat(9 * col[level] + 3 * ph[level], counts) + ph[cols]
        r[at, cols] = r_pairs[pair]
        x[at, cols] = x_pairs[pair]
    return replace(matrix_free_sensitivity(net), r=r, x=x)


def matrix_free_sensitivity(net: Network) -> SensitivityMatrices:
    """The linearized model without its dense matrices: net and v_tilde only.

    Enough for voltage_linear, compare_models and the multilevel engines;
    the flat coupling engine builds R and X itself when handed this.
    """
    v_tilde = np.full(net.n_flat, net.base_v_squared, dtype=np.float64)
    return SensitivityMatrices(r=None, x=None, v_tilde=v_tilde, net=net)


def voltage_linear(sens: SensitivityMatrices, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared voltage magnitudes under the linearized model.

    Equal to R p + X q + v_tilde, computed in O(N) by two tree sums and
    without reading R or X. Per line and phase psi, the conjugated subtree
    sum P - jQ of s = p + jq, rotated by omega**psi, is the current a
    sweep from the flat profile would carry, and z_line times it is the
    line's drop. The forest's line_operator holds twice that map, with the
    rotation by omega**-phi and the real part that follow, as one real
    3 x 6 matrix per line acting on [P; Q], so the sweep runs in real
    arithmetic; it comes from the same rotated_pairs formula as R and X.
    With t the ancestor-or-self sum of the result, v = v_tilde + t: a
    pair (i, j) shares exactly the lines above both, which is the
    common-path impedance of the dense entry.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != (sens.n,) or q.shape != (sens.n,):
        raise ValueError(
            f"injection vectors must have shape ({sens.n},), got {p.shape} and {q.shape}"
        )
    net = sens.net
    forest = net.forest
    pq = np.zeros((6, net.n_buses))
    pq[:3].reshape(-1)[net.flat_cell] = p
    pq[3:].reshape(-1)[net.flat_cell] = q
    drop = np.einsum("fkr,kr->fr", forest.line_operator, forest.subtree_sums(pq))
    t = forest.ancestor_sums(drop)
    return sens.v_tilde + t.reshape(-1)[net.flat_cell]


def adjoint_sweep(forest: Forest, cells: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The adjoint of voltage_linear's sweep: R^T d and X^T d in O(n).

    d holds one value per entry of cells, a cell of a raveled forest
    array; values at a repeated cell add up. The result is t at the same
    cells, with t(i, phi) the sum over (j, psi) of
    conj(Z(lca(i, j))[psi, phi]) omega**(psi - phi) d(j, psi). Then
    R^T d = 2 Re t and X^T d = -2 Im t. The steps run voltage_linear's in
    reverse order: subtree sums of d rotated by omega**psi, a rotation
    through each line by conj(z_line), and ancestor sums rotated by
    omega**-phi. Over Network.forest at flat_cell it is the whole flat
    product; over a subforest, the product restricted to its buses, where
    a multilevel scope also places each child's per-phase aggregate at
    its anchor's cells.
    """
    x = np.bincount(cells, weights=d, minlength=3 * forest.n).reshape(3, forest.n)
    current = OMEGA_POW[2:, None] * forest.subtree_sums(x)
    drop = (forest.z_line_conj * current[:, None]).sum(axis=0)
    t = OMEGA_POW[2::-1, None] * forest.ancestor_sums(drop)
    return t.reshape(-1)[cells]
