"""Linearized voltage model: v = R p + X q + v_tilde.

v collects squared voltage magnitudes over the flat (bus, phase) index
space. Each matrix entry reduces to a common-path impedance rotated by a
signed power of the 120-degree phasor omega and projected to its real or
imaginary part. On a radial feeder that product is a tree sweep:
voltage_linear takes subtree sums of the injections, rotates them through
each line's impedance and takes ancestor sums of the result, in O(N) over
the DFS columns of Network and without the matrices. adjoint_sweep runs
the same sums in reverse for R^T d and X^T d; a multilevel scope with a
large remainder computes its whole share of the product with it. Every
dense entry comes from sensitivity_block, which fills R and X at a set
of flat indices, each row a copy of its parent bus's row with the bus's
own pair values over its subtree: over every index it is
build_sensitivity, whose R and X stay as the oracle the sweeps are
tested against and as the operands of the flat coupling engine, and at a
multilevel scope's kernel rows it is that scope's dense block.
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


def sensitivity_block(net: Network, idx) -> np.ndarray:
    """R over X at the flat indices idx: shape (2, m, m), [0][a, b] = R[idx[a], idx[b]].

    Entry (a, b) with a = (i, phi), b = (j, psi) is the rotated conjugate
    common-path impedance of buses i, j at phase pair (phi, psi), from
    rotated_pairs of Network.z_prefix. Row a copies its parent row, the row
    of idx at (parent(i), phi), since lca(i, j) = lca(parent(i), j) outside
    i's subtree; inside it every column meets i at i and takes i's own pair
    value. A row whose parent holds no row starts from the substation's
    pair values, so every column outside its subtree must meet it there:
    the flat indices of a bus set closed upward below one top, or below
    tops that hang off the substation, qualify. Indices may repeat.

    The rows are filled one depth level at a time: each row of a level is
    copied on its own, then one scatter covers the level's subtrees'
    columns, contiguous once sorted into DFS order. The scatters' cells and
    pairs are listed for several levels at once: at most m^2 / 32 entries,
    or 16 per row where that is more, unless one level holds more. So the
    lists of a block over 512 indices stay under a tenth of its bytes.
    """
    idx = np.asarray(idx, dtype=np.int64)
    m = len(idx)
    bus, ph = net.flat_bus_pos[idx], net.flat_phase[idx]
    # Pair (phi, psi) of row a's bus sits at 9 a + 3 phi + psi, the
    # substation's after the last row's.
    r_pairs, x_pairs = rotated_pairs(net.z_prefix[np.append(bus, 0)]).reshape(2, -1)
    # Rows m, m + 1 and m + 2 hold the substation's pair values at phases
    # a, b and c; a row whose parent holds no row copies the one at its phase.
    block = np.empty((2, m + 3, m), dtype=np.float64)
    top = 9 * m + 3 * np.arange(3)[:, None] + ph
    block[0, m:], block[1, m:] = r_pairs[top], x_pairs[top]
    where = np.full(net.n_flat + 1, -1, dtype=np.int64)  # index -1 reads the pad
    where[idx] = np.arange(m)
    up = where[net.index_of[net.parent_pos[bus], ph]]
    up = np.where(up >= 0, up, m + ph)
    # Rows in depth order; the one at k scatters its subtree's columns
    # dfs[start[k]:stop[k]] as entries total[k] to total[k + 1].
    rows = np.argsort(net.depth[bus], kind="stable")
    dfs = np.argsort(net.tin[bus], kind="stable")
    tin = net.tin[bus[rows]]
    start, stop = np.searchsorted(net.tin[bus[dfs]], [tin, tin + net.size[bus[rows]]])
    ends = np.cumsum(stop - start)
    depth = net.depth[bus[rows]]
    levels = [0, *(np.flatnonzero(depth[1:] != depth[:-1]) + 1).tolist(), m]
    total = [0, *ends.tolist()]  # entries before the row at k
    copies = list(zip(rows.tolist(), up[rows].tolist()))
    r, x = block
    r_flat, x_flat = block.reshape(2, -1)
    lo = 0
    while lo < len(levels) - 1:
        # Levels lo to hi - 1 share one list of entries.
        first, hi = total[levels[lo]], lo + 1
        while hi < len(levels) - 1 and total[levels[hi + 1]] - first <= max(m * m // 32, 16 * m):
            hi += 1
        a, b = levels[lo], levels[hi]
        count = stop[a:b] - start[a:b]
        cols = dfs[np.repeat(start[a:b] + count - ends[a:b], count) + np.arange(first, total[b])]
        at = np.repeat(m * rows[a:b], count) + cols
        pair = np.repeat(9 * rows[a:b] + 3 * ph[rows[a:b]], count) + ph[cols]
        for k in range(lo, hi):
            for i, j in copies[levels[k]:levels[k + 1]]:
                r[i] = r[j]
                x[i] = x[j]
            s = slice(total[levels[k]] - first, total[levels[k + 1]] - first)
            r_flat[at[s]] = r_pairs[pair[s]]
            x_flat[at[s]] = x_pairs[pair[s]]
        lo = hi
    return block[:, :m]


def build_sensitivity(net: Network) -> SensitivityMatrices:
    """Materialize the dense N x N sensitivity matrices and v_tilde.

    R and X are sensitivity_block over every flat index. v_tilde is the
    flat profile at the substation's squared magnitude: with losses
    neglected, zero injections leave every bus at the reference voltage.
    """
    r, x = sensitivity_block(net, np.arange(net.n_flat))
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
