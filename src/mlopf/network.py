"""Rooted multi-phase radial network model.

The network is a tree rooted at the substation (bus 0). Everything the
linearized voltage model needs reduces to common-path impedance queries:
the per-phase-pair impedance summed over the shared portion of two buses'
paths back to the substation. That shared portion is the root path of the
buses' lowest common ancestor, so this module owns the topology, the
per-unit impedance data and the flat (bus, phase) index space. One DFS
preorder lays every subtree out as a contiguous range; single LCA queries
read those ranges. A Forest is that layout over sets of flat indices,
phase by phase, as phases only drop away from the substation, each set a
row of its own: the whole index space, or every multilevel scope's rows.
It runs the two O(N) tree sums, over subtrees and over root paths, that
both voltage models run on, restarting both at every row.

Networks are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .documents import (
    PHASE_CODE, PHASE_NAME, NetworkError, document_columns, document_keys, document_number,
    id_column, json_number, number_column, phase_column, raise_first, read_document,
)

# The 120-degree phasor of phase b relative to phase a.
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


def rotated_pairs(z: np.ndarray) -> np.ndarray:
    """2 Re over -2 Im of conj(z) * OMEGA_PAIR, for z of shape (..., 3, 3).

    Returns shape (2, ..., 3, 3). At a common-path impedance these are the
    R and X entries of each phase pair (phi, psi); at a line impedance,
    twice the real line map of the linear voltage sweep. Written as
    separate float multiplies and adds, so that every table and every
    scalar entry rounds alike; numpy's complex kernels may differ in the
    last ulp.
    """
    re, im, w_re, w_im = z.real, z.imag, OMEGA_PAIR.real, OMEGA_PAIR.imag
    return np.stack([2.0 * (re * w_re + im * w_im), -2.0 * (re * w_im - im * w_re)])


def phase_code(phase: str | int) -> int:
    """Numeric code of a phase: a, b, c map to 0, 1, 2; a bool is no phase."""
    if isinstance(phase, str):
        try:
            return PHASE_CODE[phase]
        except KeyError:
            raise NetworkError(f"unknown phase {phase!r}") from None
    if isinstance(phase, bool) or phase not in (0, 1, 2):
        raise NetworkError(f"unknown phase code {phase!r}")
    return int(phase)


@dataclass(frozen=True)
class Bus:
    id: int
    phases: tuple[str, ...]     # sorted, distinct, nonempty subset of ("a", "b", "c")
    parent: int | None          # None only for the substation (bus 0)


@dataclass(frozen=True)
class Line:
    from_bus: int               # parent side
    to_bus: int                 # child side
    z: np.ndarray               # 3x3 complex p.u., zero outside the line's phase pairs


class Forest:
    """Flat indices laid out phase by phase in DFS order, and the two O(n) tree sums over them.

    The columns lie in rows, one block of flat indices to a row: its
    phase a's columns, then b's, then c's, each in DFS order, so column
    r's subtree, its phase at the buses below its bus, is columns r up to
    exit[r], inside r's row. Column r holds flat index idx[r], or -1 in a
    row's padding past its block. rows lists (count, width) per class:
    count rows of width columns each, laid end to end, the classes too.
    Both sums restart at every row, so no value crosses from one block to
    another. A forest array has shape (k, n), rows by column, real or
    complex. z_line[r] is the impedance at column r's phase of the line
    into its bus, a top's too, a bus whose parent holds no column: ancestor
    sums of the lines measure paths from the tops' parent. Cross-phase
    terms are a short list: column pairs[0][j] meets column pairs[1][j] of
    its bus through z_pair[j]. line applies a map given at the columns and
    at the pairs; line_operator, the one both linear sweeps read, and
    ancestor_sums' exit cells are built once.
    """

    def __init__(self, idx: np.ndarray, exit_: np.ndarray, phase, bus, z: np.ndarray, rows):
        """Columns idx with their exits; column r sits at phase[r] of bus bus[r] of z's lines."""
        self.idx, self.n = idx, len(idx)
        self._rows = rows
        counts, widths = np.array(rows, dtype=np.int64).reshape(-1, 2).T
        width = np.repeat(widths, counts)
        # A row's prefix sums take one cell more than its columns: the zero
        # before its first. An exit at its row's end sends ancestor_sums'
        # parts to the one cell past the array, which is dropped.
        self._cells = self.n + len(width)
        self._start, self._stop, self._exit = None, exit_, exit_
        if len(width) > 1:
            row = np.repeat(np.arange(len(width)), width)
            self._start, self._stop = np.arange(self.n) + row, exit_ + row
            self._exit = np.where(exit_ < np.cumsum(width)[row], exit_, self.n)
        self._exit_cells: dict[tuple[int, int], np.ndarray] = {}
        # Columns at one bus lie one or two apart once sorted by bus.
        by_bus = np.argsort(bus, kind="stable")
        near = np.concatenate([np.stack((by_bus[:-k], by_bus[k:])) for k in (1, 2)], axis=1)
        near = near[:, bus[near[0]] == bus[near[1]]]
        self.pairs = to, frm = np.concatenate((near, near[::-1]), axis=1)
        self._at = (bus, phase, phase), (bus[to], phase[to], phase[frm])
        self._z, self.z_line, self.z_pair = z, z[self._at[0]], z[self._at[1]]

    def _rowed(self, a: np.ndarray, lead: int = 0):
        """Each class's rows of a forest array a, shape (k, count, width), past lead cells
        that each row of a starts with."""
        at = 0
        for count, width in self._rows:
            span = count * (width + lead)
            yield a[:, at:at + span].reshape(len(a), count, width + lead)[..., lead:]
            at += span

    @cached_property
    def line_operator(self) -> tuple[np.ndarray, np.ndarray]:
        """line's (same, cross) for twice the real line map of the linear voltage sweep.

        At phase phi, rotated_pairs(z)[:, phi, psi] = [2 Re A, 2 Im A], A = omega**-phi z[phi, psi]
        omega**psi; on subtree sums of [p; q] they give 2 Re(omega**-phi drop), shape (2, n).
        """
        rotated = rotated_pairs(self._z)
        return rotated[(slice(None), *self._at[0])], rotated[(slice(None), *self._at[1])]

    def line(self, same: np.ndarray, cross: np.ndarray, s: np.ndarray, transpose=False):
        """Rows s, (k, n), into one row: column r adds same * s at r and cross * s at each
        pair (r, c), with same (k, n) and cross (k, m). Transposed, one row gives k rows."""
        to, frm = self.pairs
        if transpose:
            out, x = same * s, s[to]
            for row, c in zip(out, cross):
                np.add.at(row, frm, c * x)
            return out
        out, at = same[0] * s[0], cross[0] * s[0][frm]
        for k in range(1, len(s)):
            out, at = out + same[k] * s[k], at + cross[k] * s[k][frm]
        np.add.at(out, to, at)
        return out

    def subtree_sums(self, x: np.ndarray) -> np.ndarray:
        """Row-wise sums of a forest array over every column's subtree.

        A prefix sum over each row's columns, after a zero, read at [r, exit[r]).
        """
        prefix = np.zeros((len(x), self._cells), dtype=x.dtype)
        if self._start is None:  # one row, as every flat forest: no per-row views
            np.add.accumulate(x, axis=1, out=prefix[:, 1:])
            return prefix.take(self._stop, axis=1) - prefix[:, :-1]
        for columns, sums in zip(self._rowed(x), self._rowed(prefix, 1)):
            np.add.accumulate(columns, axis=-1, out=sums)
        return prefix.take(self._stop, axis=1) - prefix.take(self._start, axis=1)

    def ancestor_sums(self, x: np.ndarray) -> np.ndarray:
        """Row-wise sums of a forest array over every column and its ancestors.

        A prefix sum over each row's columns in which each column's value is
        subtracted again at its subtree's exit column, so the running sum at
        a column holds exactly the columns whose subtrees contain it. The
        subtraction is one bincount over the array's float parts, a complex
        entry being two of them; a column whose subtree runs to its row's
        end sends its parts to one extra cell past the array, which is
        dropped.
        """
        x = np.ascontiguousarray(x, dtype=np.result_type(x, np.float64))
        parts = x.view(np.float64)
        cells = self._exit_cells.get(parts.shape)
        if cells is None:
            per = x.itemsize // 8
            at = (self._exit[:, None] * per + np.arange(per)).ravel()
            cells = np.arange(len(parts))[:, None] * at.size + at
            cells[:, at >= at.size] = parts.size
            cells = self._exit_cells[parts.shape] = cells.ravel()
        exits = np.bincount(cells, weights=parts.ravel(), minlength=parts.size + 1)
        d = (parts - exits[:-1].reshape(parts.shape)).view(x.dtype)
        if self._start is None:
            return np.add.accumulate(d, axis=1)
        out = np.empty_like(d)
        for columns, sums in zip(self._rowed(d), self._rowed(out)):
            np.add.accumulate(columns, axis=-1, out=sums)
        return out


def _tour(parent_pos: np.ndarray) -> np.ndarray:
    """The DFS tour from position 0, children in id order, as list-ranked steps.

    Step k enters bus position k and step n + k leaves it. Returns each
    step's distance to the tour's last step, which leaves position 0, or
    -1 for the steps of a bus whose parent chain never reaches position 0.
    Every round doubles how far each step has looked ahead, so ranking
    takes log2(2n) rounds whatever the tree's depth.
    """
    n = len(parent_pos)
    kids = np.argsort(parent_pos[1:], kind="stable") + 1
    up = parent_pos[kids]
    head = np.ones(len(kids), dtype=bool)
    head[1:] = up[1:] != up[:-1]
    # Entering a bus leads into its first child, or out of it if it has
    # none; leaving a bus leads into its next sibling, or out of its parent.
    ahead = np.concatenate((np.arange(n, 2 * n), n + parent_pos))
    ahead[up[head]] = kids[head]
    ahead[n + kids[:-1][~head[1:]]] = kids[1:][~head[1:]]
    ahead[n] = n
    dist = np.ones(2 * n, dtype=np.int64)
    dist[n] = 0
    for _ in range((2 * n).bit_length()):
        dist += dist[ahead]
        ahead = ahead[ahead]
    dist[ahead != n] = -1
    return dist


class Network:
    """Radial multi-phase network with a flat (bus, phase) index space.

    Flat indices cover every phase of every non-substation bus, ordered
    bus-id-major with phases a < b < c within a bus. The substation carries
    no flat indices; its voltage is the reference. Each line is kept once,
    as the z_line row of the bus it feeds, and is named (parent, bus).
    Bus positions follow ids: ids[k] is the id of position k. The Bus
    records in buses are derived from the arrays on first read.
    """

    def __init__(self, buses: list[Bus], lines: list[Line], base_v_squared: float = 1.0):
        """A network from records, each bus read as {"id", "phases", "parent"}, each line's
        ends as {"from", "to"} and base_v_squared as the document field by load_network's
        readers: a record is accepted or rejected as its document entry is, with its
        message. A line's z must have shape (3, 3)."""
        document = {
            "base_v_squared": base_v_squared,
            "buses": [{"id": b.id, "phases": b.phases, "parent": b.parent} for b in buses],
            "lines": [{"from": ln.from_bus, "to": ln.to_bus} for ln in lines],
        }
        bus = document_columns(document, "buses", "network", "bus", _BUS_FIELDS)
        line = document_columns(document, "lines", "network", "line", _LINE_ENDS)
        z = [np.asarray(ln.z, dtype=np.complex128) for ln in lines]
        for frm, to, zj in zip(line["from"], line["to"], z):
            if zj.shape != (3, 3):
                raise NetworkError(f"line ({frm},{to}): z must have shape (3, 3), not {zj.shape}")
        self._build(
            bus["id"], bus["parent"], *bus["phases"], np.stack([line["from"], line["to"]], axis=1),
            np.array(z, dtype=np.complex128).reshape(-1, 3, 3),
            document_number(document, "base_v_squared", 1.0, "network"),
        )

    @classmethod
    def _from_columns(cls, *columns) -> "Network":
        net = cls.__new__(cls)
        net._build(*columns)
        return net

    def _build(self, ids, parents, codes, counts, ends, z, base_v_squared) -> None:
        """Validate the columns of a network and lay it out; the one check of every network.

        Bus k, in the order given, has id ids[k] >= 0, parent id parents[k]
        (-1 for none) and phase codes 0, 1 or 2 counts[k] entries of codes;
        line j runs ends[j] = (from, to) with impedance z[j].
        A rule that several buses, or several lines' impedances, break names
        the lowest offending bus id (for a line, its child bus); a rule on
        line ends names the first offending line in the order given.
        """
        if not 0 < base_v_squared < np.inf:
            raise NetworkError("base_v_squared must be positive and finite")
        self.base_v_squared = float(base_v_squared)
        n = len(ids)
        by_id = np.argsort(ids, kind="stable")
        self.ids = ids = ids[by_id]
        again = ids[1:] == ids[:-1]
        if again.any():
            raise NetworkError(f"duplicate bus ids: {np.unique(ids[1:][again]).tolist()}")
        if not n or ids[0] != 0:
            raise NetworkError("substation bus 0 is missing")
        # Positions follow ids, so the substation is position 0.
        parents = parents[by_id]
        pos = np.empty(n, dtype=np.int64)
        pos[by_id] = np.arange(n)
        owner = pos[np.repeat(np.arange(n), counts)]
        in_pos = np.argsort(owner, kind="stable")
        codes, owner, counts = codes[in_pos], owner[in_pos], counts[by_id]
        if parents[0] != -1:
            raise NetworkError("substation bus 0 must not have a parent")
        if codes[:counts[0]].tolist() != [0, 1, 2]:
            raise NetworkError("substation bus 0 must carry phases a, b, c")

        self.parent_pos = self.bus_positions(parents)
        unsorted = (owner[1:] == owner[:-1]) & (codes[1:] <= codes[:-1])
        child = np.arange(n) > 0
        bus = lambda i: f"bus {ids[i]}"
        raise_first([
            (counts == 0, lambda i: f"{bus(i)} has no phases"),
            (np.bincount(owner[1:][unsorted], minlength=n) > 0,
             lambda i: f"{bus(i)} phases must be distinct and sorted a<b<c"),
            (child & (parents == -1), lambda i: f"{bus(i)} has no parent"),
            (child & (parents != -1) & (self.parent_pos < 0),
             lambda i: f"{bus(i)} references unknown parent {parents[i]}"),
            (child & (parents == ids), lambda i: f"not a tree: {bus(i)} is its own parent"),
        ])
        self.phase_mask = np.zeros((n, 3), dtype=bool)
        self.phase_mask.reshape(-1)[3 * owner + codes] = True

        # Exactly one line per non-root bus, endpoints agreeing with parents.
        if len(ends) != n - 1:
            raise NetworkError(f"not a tree: {len(ends)} lines for {n} buses (need {n - 1})")
        frm, to = ends.T
        fed = self.bus_positions(to)
        known = (fed >= 0) & (self.bus_positions(frm) >= 0)
        again = np.ones(len(fed), dtype=bool)
        again[np.unique(fed, return_index=True)[1]] = False
        line = lambda j: f"line ({frm[j]},{to[j]})"
        raise_first([
            (~known, lambda j: f"{line(j)} references unknown bus"),
            (again, lambda j: f"not a tree: bus {to[j]} has two incoming lines"),
            (parents[fed] != frm, lambda j: (
                f"{line(j)} disagrees with bus {to[j]}'s parent "
                f"{None if parents[fed[j]] < 0 else parents[fed[j]]}")),
        ])
        self.z_line = np.zeros((n, 3, 3), dtype=np.complex128)
        self.z_line[fed] = z

        # The DFS preorder, children in ascending bus-id order: bus k's
        # subtree is order[tin[k] : tin[k] + size[k]]. Parent pointers all
        # resolve, so any bus the tour misses sits on a cycle.
        dist = _tour(self.parent_pos)
        if (dist < 0).any():
            raise NetworkError(
                f"not a tree: buses {ids[dist[:n] < 0].tolist()} are not reachable from bus 0"
            )
        enter, leave = np.split(2 * n - 1 - dist, 2)
        entered = np.zeros(2 * n, dtype=np.int64)
        entered[enter] = 1
        self.tin = np.cumsum(entered)[enter] - 1
        self.order = np.empty(n, dtype=np.int64)
        self.order[self.tin] = np.arange(n)
        self.size = (leave - enter + 1) // 2
        self.depth = 2 * self.tin - enter

        # Root-path prefix sums of the zero-padded per-child line impedances:
        # one addition per bus, a level at a time from the substation down.
        self.z_prefix = np.zeros((n, 3, 3), dtype=np.complex128)
        by_depth = np.argsort(self.depth, kind="stable")
        levels = np.split(by_depth, np.cumsum(np.bincount(self.depth))[:-1])
        for level in levels[1:]:
            self.z_prefix[level] = self.z_prefix[self.parent_pos[level]] + self.z_line[level]

        # Phases may only drop moving away from the substation, and a line's
        # phase set must equal its child's. Rows follow bus ids, so the first
        # offending row names the lowest offending bus id.
        drop = self.phase_mask[1:] & ~self.phase_mask[self.parent_pos[1:]]
        if drop.any():
            k, c = np.argwhere(drop)[0].tolist()
            raise NetworkError(
                f"bus {ids[k + 1]}: phase {PHASE_NAME[c]} not present on parent bus "
                f"{parents[k + 1]}"
            )
        nonzero = self.z_line != 0
        stray = (nonzero.any(axis=2) | nonzero.any(axis=1)) & ~self.phase_mask
        if stray.any():
            k, c = np.argwhere(stray)[0].tolist()
            raise NetworkError(
                f"line ({parents[k]},{ids[k]}) has impedance on phase "
                f"{PHASE_NAME[c]} absent from bus {ids[k]}"
            )
        non_finite = ~np.isfinite(self.z_line).all(axis=(1, 2))
        negative = (self.z_line.diagonal(axis1=1, axis2=2).real < 0).any(axis=1)
        for bad, what in ((non_finite, "a non-finite impedance"),
                          (negative, "negative series resistance")):
            if bad.any():
                k = int(np.argmax(bad))
                raise NetworkError(f"line ({parents[k]},{ids[k]}) has {what}")

        # Flat (bus, phase) index space, bus-id-major, phase-minor: the cells
        # of phase_mask that are set, after the substation's three.
        self.flat_bus_pos, self.flat_phase = np.divmod(np.flatnonzero(self.phase_mask)[3:], 3)
        self.n_flat = len(self.flat_phase)
        self.index_of = np.full((n, 3), -1, dtype=np.int64)
        self.index_of[self.flat_bus_pos, self.flat_phase] = np.arange(self.n_flat)

        # The whole index space as one Forest.
        _, self.forest = self.subforest(np.arange(self.n_flat))

    # -- basic lookups ---------------------------------------------------

    @property
    def n_buses(self) -> int:
        return len(self.ids)

    @cached_property
    def buses(self) -> list[Bus]:
        """Every bus as a Bus record, in id order."""
        parents = self.ids[self.parent_pos].tolist()
        parents[0] = None
        names = [tuple(PHASE_NAME[c] for c in range(3) if bits >> c & 1) for bits in range(8)]
        bits = (self.phase_mask @ np.array([1, 2, 4])).tolist()
        return [Bus(i, names[b], p) for i, b, p in zip(self.ids.tolist(), bits, parents)]

    @cached_property
    def _pos(self) -> dict[int, int]:
        return dict(zip(self.ids.tolist(), range(self.n_buses)))

    def bus_pos(self, bus_id: int) -> int:
        try:
            return self._pos[bus_id]
        except KeyError:
            raise NetworkError(f"unknown bus id {bus_id}") from None

    def bus_positions(self, bus_ids: np.ndarray) -> np.ndarray:
        """The position of each of an array of bus ids; -1 for an id no bus has."""
        k = np.minimum(np.searchsorted(self.ids, bus_ids), len(self.ids) - 1)
        return np.where(self.ids[k] == bus_ids, k, -1)

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_pos(bus_id)]

    @property
    def lines(self) -> list[Line]:
        """Every line, in the id order of the bus it feeds."""
        return [Line(b.parent, b.id, z) for b, z in zip(self.buses[1:], self.z_line[1:])]

    def line_to(self, bus_id: int) -> Line:
        k = self.bus_pos(bus_id)
        if k == 0:
            raise NetworkError(f"bus {bus_id} has no incoming line")
        return Line(int(self.ids[self.parent_pos[k]]), bus_id, self.z_line[k])

    def flat_index(self, bus_id: int, phase: str | int) -> int:
        idx = self.index_of[self.bus_pos(bus_id), phase_code(phase)]
        if idx < 0:
            raise NetworkError(f"bus {bus_id} does not carry phase {phase}")
        return int(idx)

    def flat_labels(self) -> list[tuple[int, str]]:
        """(bus id, phase) per flat index, in index order."""
        return list(zip(
            self.ids[self.flat_bus_pos].tolist(), [PHASE_NAME[c] for c in self.flat_phase.tolist()]
        ))

    # -- forests over the DFS columns ---------------------------------------

    def subforest(self, *blocks) -> tuple[np.ndarray, "Forest"]:
        """The forest that sets of flat indices span, each set a block of its own, phase by
        phase in DFS order.

        In each block, each index's parent, its phase at the parent bus, must
        be in the block unless its bus is a top, one whose parent holds no
        index of the block; a bus with indices below it must hold all their
        phases. Every bus carries its own line, a top's too, so ancestor
        sums add up to common-path impedances from the tops' parent, where
        buses under different tops meet: all tops of a block share one
        parent. A block may repeat indices.
        Each block fills a row of its own. Blocks of one size class, the two
        leading bits of their column count, share the width of the widest,
        and a narrower block's row ends in padding columns, each alone at a
        bus of no line; the classes follow in order of size. So padding is
        less than a third of any row, and a block alone in its class, one
        block among them, has none.
        Returns (cols, forest): cols[a] is the column of the a-th index of the
        blocks in turn.
        """
        idx = np.concatenate([np.asarray(b, dtype=np.int64).reshape(-1) for b in blocks])
        block = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        n, bus = self.n_buses, self.flat_bus_pos[idx]
        cells, cols = np.unique(
            (3 * block + self.flat_phase[idx]) * n + self.tin[bus], return_inverse=True
        )
        (block, phase), t = np.divmod(cells // n, 3), cells % n
        t_bus, bus = np.unique(block * n + t, return_inverse=True)
        nodes = self.order[t_bus % n]
        exit_ = np.searchsorted(cells, cells + self.size[self.order[t]])
        # Each block's row, its size class's rows in block order.
        first = np.searchsorted(cells, 3 * n * np.arange(len(blocks) + 1))
        size = np.diff(first)
        mantissa, exponent = np.frexp(size)  # size = mantissa * 2**exponent, mantissa in [1/2, 1)
        classes, of_class = np.unique(2 * exponent + (mantissa >= 0.75), return_inverse=True)
        widths = np.zeros(len(classes), dtype=np.int64)
        np.maximum.at(widths, of_class, size)
        rows = [(int(c), int(w)) for c, w in zip(np.bincount(of_class), widths)]
        in_rows = np.argsort(of_class, kind="stable")
        row_width = widths[of_class[in_rows]]
        start = np.empty(len(blocks), dtype=np.int64)
        start[in_rows] = np.cumsum(row_width) - row_width
        width = int(row_width.sum())
        # Each bus's line, then the padding columns' buses, which have none.
        z = np.zeros((len(nodes) + width - len(cells), 3, 3), dtype=np.complex128)
        np.take(self.z_line, nodes, axis=0, out=z[:len(nodes)], mode="clip")
        idx = self.index_of[self.order[t], phase]
        shift = (start - first[:-1])[block]
        at = np.arange(len(cells)) + shift
        col_idx, col_exit = np.full(width, -1), np.arange(1, width + 1)
        col_idx[at], col_exit[at] = idx, exit_ + shift
        col_phase, col_bus = np.zeros(width, dtype=np.int64), np.empty(width, dtype=np.int64)
        col_bus[col_idx < 0] = len(nodes) + np.arange(width - len(at))
        col_phase[at], col_bus[at] = phase, bus
        return at[cols], Forest(col_idx, col_exit, col_phase, col_bus, z, rows)

    # -- path and impedance queries ---------------------------------------

    def path_to_root(self, bus_id: int) -> list[tuple[int, int]]:
        """Lines on the unique substation-to-bus path, ordered outward."""
        k = self.bus_pos(bus_id)
        rev = []
        while self.parent_pos[k] >= 0:
            p = self.parent_pos[k]
            rev.append((int(self.ids[p]), int(self.ids[k])))
            k = p
        rev.reverse()
        return rev

    def _lca_walk(self, a: int, b: int) -> int:
        """LCA position of bus positions a and b: climb from a until its subtree holds b."""
        tb = self.tin[b]
        while not self.tin[a] <= tb < self.tin[a] + self.size[a]:
            a = self.parent_pos[a]
        return int(a)

    def lca(self, i: int, j: int) -> int:
        """Lowest common ancestor bus id of two buses."""
        return int(self.ids[self._lca_walk(self.bus_pos(i), self.bus_pos(j))])

    def common_path_impedance(
        self, i: int, j: int, phi: str | int, psi: str | int
    ) -> complex:
        """Summed (mutual) impedance over the shared root paths of buses i and j.

        Lines lacking either phase contribute zero; disjoint paths give zero.
        """
        a, b = phase_code(phi), phase_code(psi)
        lca = self._lca_walk(self.bus_pos(i), self.bus_pos(j))
        return complex(self.z_prefix[lca, a, b])

    def common_path_matrix(self, i: int, j: int) -> np.ndarray:
        """All nine phase-pair common-path impedances of buses i and j."""
        return self.z_prefix[self._lca_walk(self.bus_pos(i), self.bus_pos(j))].copy()


# -- document I/O ---------------------------------------------------------

def _parent_column(values: list, columns=None) -> np.ndarray:
    """Parent ids as int64, -1 for null."""
    ids = id_column([0 if value is None else value for value in values])
    ids[[i for i, value in enumerate(values) if value is None]] = -1
    return ids


def _bus_phases_column(values: list, columns=None) -> tuple[np.ndarray, np.ndarray]:
    """(codes, counts) of each bus's phases, a JSON array or a Bus record's tuple, sorted."""
    if not set(map(type, values)) <= {list, tuple}:
        value = next(value for value in values if not isinstance(value, (list, tuple)))
        raise TypeError(f"phases {value!r} is not a JSON array")
    codes = phase_column(list(chain.from_iterable(values)))
    counts = np.fromiter(map(len, values), np.int64, len(values))
    key = codes + 3 * np.repeat(np.arange(len(values)), counts)
    if (key[1:] < key[:-1]).any():
        codes = np.sort(key) % 3
    return codes, counts


def _read_impedance(pairs, line: str) -> np.ndarray:
    if not isinstance(pairs, dict):
        raise NetworkError(f"{line}: field 'z' must be a JSON object")
    z = np.zeros((3, 3), dtype=np.complex128)
    for key, val in pairs.items():
        if len(key) != 2 or key[0] not in PHASE_CODE or key[1] not in PHASE_CODE:
            raise NetworkError(f"{line}: bad impedance key {key!r}")
        if not (isinstance(val, (list, tuple)) and len(val) == 2):
            raise NetworkError(f"{line}: impedance {key!r} must be [re, im]")
        real, imag = json_number(val[0]), json_number(val[1])
        z[PHASE_CODE[key[0]], PHASE_CODE[key[1]]] = complex(real, imag)
    return z


def _impedance_column(values: list, columns) -> np.ndarray:
    """Line impedances, shape (m, 3, 3), from objects of phase-pair keys and [re, im] values."""
    m = len(values)
    if set(map(type, values)) <= {dict}:
        cell = {a + b: 3 * i + j for a, i in PHASE_CODE.items() for b, j in PHASE_CODE.items()}
        cells = list(map(cell.get, chain.from_iterable(values)))
        parts = list(chain.from_iterable(map(dict.values, values)))
        if None not in cells and set(map(type, parts)) <= {list} and set(map(len, parts)) <= {2}:
            z = np.zeros((m, 9, 2))
            line = np.repeat(np.arange(m), np.fromiter(map(len, values), np.int64, m))
            z[line, cells] = number_column(list(chain.from_iterable(parts))).reshape(-1, 2)
            return z.view(np.complex128).reshape(m, 3, 3)
    frm, to = columns["from"], columns["to"]
    return np.array([
        _read_impedance(pairs, f"line ({frm[i]},{to[i]})") for i, pairs in enumerate(values)
    ], dtype=np.complex128).reshape(m, 3, 3)


# The fields of a bus entry and a line's ends, for documents and records alike.
_BUS_FIELDS = {"phases": _bus_phases_column, "id": id_column, "parent": (_parent_column, None)}
_LINE_ENDS = {"from": id_column, "to": id_column}


def load_network(document: dict | str | Path) -> Network:
    """Build a validated Network from a JSON document, path, or parsed dict.

    Entries are read by document_columns straight into the columns that
    Network validates; a key outside the schema is rejected by document_keys.
    """
    document = document_keys(
        read_document(document, "network"), ("base_v_squared", "buses", "lines"),
        "network document",
    )
    for key in ("buses", "lines"):
        if key not in document:
            raise NetworkError(f"network document lacks key {key!r}")
    buses = document_columns(document, "buses", "network", "bus", _BUS_FIELDS)
    lines = document_columns(
        document, "lines", "network", "line", {**_LINE_ENDS, "z": (_impedance_column, {})}
    )
    return Network._from_columns(
        buses["id"], buses["parent"], *buses["phases"],
        np.stack([lines["from"], lines["to"]], axis=1), lines["z"],
        document_number(document, "base_v_squared", 1.0, "network"),
    )


def network_to_document(net: Network) -> dict:
    """Serializable form of a network; inverse of load_network."""
    return {
        "base_v_squared": net.base_v_squared,
        "buses": [
            {"id": b.id, "phases": list(b.phases), "parent": b.parent}
            for b in net.buses
        ],
        "lines": [
            {
                "from": ln.from_bus,
                "to": ln.to_bus,
                "z": {PHASE_NAME[i] + PHASE_NAME[j]: [float(v.real), float(v.imag)]
                      for (i, j), v in np.ndenumerate(ln.z) if v != 0},
            }
            for ln in net.lines
        ],
    }


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_document(net), indent=2) + "\n")
