"""Linearized voltage model: v = R p + X q + v_tilde.

v collects squared voltage magnitudes over the flat (bus, phase) index
space. Each matrix entry reduces to a common-path impedance rotated by a
signed power of the 120-degree phasor omega and projected to its real or
imaginary part. On a radial feeder that product is a tree sweep:
voltage_linear takes subtree sums of the injections, rotates them through
each line's impedance and takes ancestor sums of the result, in O(N) over
Network.forest's columns and without the matrices. adjoint_sweep is its
transpose, the same sums and the same real line operator in reverse order,
for R^T d and X^T d; a multilevel scope with a large remainder computes its
whole share of the product with it. Every dense entry comes from
sensitivity_block, which fills R over X at a set of flat indices, each row a
copy of its parent bus's row with the bus's own pair values over its
subtree; a coupling scope multiplies it as returned, from the left. Over
every index it is dense_sensitivity, run on the first read of
SensitivityMatrices.r or .x, which only the flat coupling engine, whose one
scope's block it is, and the tests make. At a multilevel scope's kernel rows
it is that scope's block, so a multilevel solve holds no N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import OMEGA, OMEGA_POW, Forest, Network, phase_code, rotated_pairs  # noqa: F401


@dataclass(frozen=True)
class SensitivityMatrices:
    """Sensitivities of squared voltage magnitudes to injections.

    Holds the network, which is all voltage_linear reads, and v_tilde. The
    dense r and x are built together on the first read of either and kept.
    """

    v_tilde: np.ndarray  # length N, zero-injection squared magnitudes
    net: Network = field(repr=False)  # the feeder voltage_linear sweeps

    @property
    def n(self) -> int:
        return self.v_tilde.shape[0]

    @cached_property
    def _dense(self) -> np.ndarray:
        return dense_sensitivity(self.net)

    r = property(lambda self: self._dense[0])  # N x N, d v / d p
    x = property(lambda self: self._dense[1])  # N x N, d v / d q


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
    tops that hang off the substation, qualify. Indices may repeat. The
    block owns its memory; the substation's rows are held apart.

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
    # The substation's pair rows at phases a, b and c, as rotated_pairs
    # gives them (signed zeros included): a row whose parent holds no row
    # copies the one at its phase, numbered ph - 3.
    top = 9 * m + 3 * np.arange(3)[:, None] + ph
    pad_r, pad_x = r_pairs[top], x_pairs[top]
    block = np.empty((2, m, m), dtype=np.float64)
    where = np.full(net.n_flat + 1, -1, dtype=np.int64)  # index -1 has no row
    where[idx] = np.arange(m)
    up = where[net.index_of[net.parent_pos[bus], ph]]
    up = np.where(up >= 0, up, ph - 3)
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
                if j >= 0:
                    r[i], x[i] = r[j], x[j]
                else:
                    r[i], x[i] = pad_r[j], pad_x[j]
            s = slice(total[levels[k]] - first, total[levels[k + 1]] - first)
            r_flat[at[s]] = r_pairs[pair[s]]
            x_flat[at[s]] = x_pairs[pair[s]]
        lo = hi
    return block


def build_sensitivity(net: Network) -> SensitivityMatrices:
    """The linearized model of net, in O(N): R and X are built when first read.

    v_tilde is the flat profile at the substation's squared magnitude: with
    losses neglected, zero injections leave every bus at the reference
    voltage.
    """
    v_tilde = np.full(net.n_flat, net.base_v_squared, dtype=np.float64)
    return SensitivityMatrices(v_tilde=v_tilde, net=net)


def dense_sensitivity(net: Network) -> np.ndarray:
    """R over X, shape (2, N, N): sensitivity_block over every flat index."""
    return sensitivity_block(net, np.arange(net.n_flat))


def voltage_linear(sens: SensitivityMatrices, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared voltage magnitudes under the linearized model.

    Equal to R p + X q + v_tilde, computed in O(N) by two tree sums over
    Network.forest's columns and without reading R or X. Per line and
    phase psi, the conjugated subtree sum P - jQ of s = p + jq, rotated by
    omega**psi, is the current a sweep from the flat profile would carry,
    and z_line times it is the line's drop. The forest's line_operator
    holds twice that map, with the rotation by omega**-phi and the real
    part that follow, as real coefficients on [P; Q] that Forest.line
    applies at each column's own phase and at a short list of cross-phase
    pairs; it comes from the same rotated_pairs formula as R and X. With t
    the ancestor-or-self sum of the result, v = v_tilde + t: a pair (i, j)
    shares exactly the lines above both, the dense entry's common path.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != (sens.n,) or q.shape != (sens.n,):
        raise ValueError(
            f"injection vectors must have shape ({sens.n},), got {p.shape} and {q.shape}"
        )
    forest = sens.net.forest
    s = forest.subtree_sums(np.stack((p[forest.idx], q[forest.idx])))
    v = np.empty(sens.n)
    v[forest.idx] = forest.ancestor_sums(forest.line(*forest.line_operator, s)[None])[0]
    return sens.v_tilde + v


def adjoint_sweep(forest: Forest, cols: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The transpose of voltage_linear's sweep: [R^T d; X^T d] in O(n).

    d holds one value per entry of cols, a column of the forest; values at
    a repeated column add up. The result, shape (2, len(cols)), is R^T d
    over X^T d at the same columns. The steps are voltage_linear's,
    transposed and in reverse order: subtree sums of d, Forest.line's
    transpose of line_operator, which gives each column rows [p; q], and
    ancestor sums of those rows. Over Network.forest, with cols each flat
    index's column, it is the whole flat product; over a subforest, the
    product restricted to its indices, where a multilevel scope also
    places each child's per-phase aggregate at its anchor's columns.
    """
    s = forest.subtree_sums(np.bincount(cols, weights=d, minlength=forest.n)[None])[0]
    return forest.ancestor_sums(forest.line(*forest.line_operator, s, transpose=True))[:, cols]
