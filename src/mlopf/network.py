"""Rooted multi-phase radial network model.

The network is a tree rooted at the substation (bus 0). Everything the
linearized voltage model needs reduces to common-path impedance queries:
the per-phase-pair impedance summed over the shared portion of two buses'
paths back to the substation. That shared portion is the root path of the
buses' lowest common ancestor, so this module owns the topology, the
per-unit impedance data and the flat (bus, phase) index space. One DFS
preorder lays every subtree out as a contiguous range; single LCA queries
read those ranges. A Forest is that layout restricted to a bus set
closed upward: the whole tree, or a swept multilevel scope's remainder
with its children's anchors. It runs the two O(N) tree sums, over
subtrees and over root paths, that both voltage models run on.

Networks are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

PHASES = ("a", "b", "c")
PHASE_CODE = {"a": 0, "b": 1, "c": 2}
PHASE_NAME = {0: "a", 1: "b", 2: "c"}

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


class NetworkError(ValueError):
    """Malformed document or violated radial-network invariant."""


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
    """Buses laid out in DFS preorder, and the two O(n) tree sums over them.

    Column r is bus position buses[r], and its subtree is columns r up to
    exit[r]. A forest array has shape (k, n), rows by column: three
    phases, or any stack of per-column rows, real or complex.
    z_line[phi, psi, r] is the impedance of the line into column r; a top,
    a column whose parent bus lies outside the forest, carries its whole
    root path there, as a line from a virtual root. line_operator, the
    real line map that both linear sweeps read, voltage_linear as it
    stands and adjoint_sweep transposed, is built on first use and kept,
    as are ancestor_sums' exit cells for each shape it is called on.
    """

    def __init__(self, buses: np.ndarray, exit_: np.ndarray, z_line: np.ndarray):
        self.buses = buses
        self.n = len(buses)
        self.z_line = np.ascontiguousarray(z_line.transpose(1, 2, 0))
        self._exit = exit_
        self._exit_cells: dict[tuple[int, int], np.ndarray] = {}

    @cached_property
    def line_operator(self) -> np.ndarray:
        """Twice the real line map of the linear voltage sweep, shape (3, 6, n).

        With A[phi, psi] = omega**-phi z_line[phi, psi] omega**psi, row phi
        holds rotated_pairs(z_line)[:, phi] = [2 Re A[phi, :], 2 Im A[phi, :]]
        per column: applied to a column's subtree sums of [p; q] it gives
        2 Re(omega**-phi drop), twice the line's share of the squared-voltage
        change at phase phi.
        """
        pairs = rotated_pairs(self.z_line.transpose(2, 0, 1))
        return pairs.transpose(2, 0, 3, 1).reshape(3, 6, self.n)

    def subtree_sums(self, x: np.ndarray) -> np.ndarray:
        """Row-wise sums of a forest array over every column's subtree.

        A prefix sum over the columns, read at [r, exit[r]).
        """
        prefix = np.zeros((len(x), self.n + 1), dtype=x.dtype)
        np.cumsum(x, axis=1, out=prefix[:, 1:])
        return np.take(prefix, self._exit, axis=1) - prefix[:, :-1]

    def ancestor_sums(self, x: np.ndarray) -> np.ndarray:
        """Row-wise sums of a forest array over every column and its ancestors.

        A prefix sum over the columns in which each column's value is
        subtracted again at its subtree's exit column, so the running sum at
        a column holds exactly the columns whose subtrees contain it. The
        subtraction is one bincount over the array's float parts, a complex
        entry being two of them; a column whose subtree runs to the end
        sends its parts to one extra cell past the array, which is dropped.
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
        d = parts - exits[:-1].reshape(parts.shape)
        return np.cumsum(d.view(x.dtype), axis=1)


class Network:
    """Radial multi-phase network with a flat (bus, phase) index space.

    Flat indices cover every phase of every non-substation bus, ordered
    bus-id-major with phases a < b < c within a bus. The substation carries
    no flat indices; its voltage is the reference. Each line is kept once,
    as the z_line row of the bus it feeds, and is named (parent, bus).
    """

    def __init__(self, buses: list[Bus], lines: list[Line], base_v_squared: float = 1.0):
        if not 0 < base_v_squared < np.inf:
            raise NetworkError("base_v_squared must be positive and finite")
        self.base_v_squared = float(base_v_squared)
        self.buses = sorted(buses, key=lambda b: b.id)
        n = len(self.buses)
        ids = [b.id for b in self.buses]
        self._pos = dict(zip(ids, range(n)))
        if len(self._pos) != n:
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise NetworkError(f"duplicate bus ids: {dupes}")
        if ids and ids[0] < 0:
            raise NetworkError("bus ids must be nonnegative")
        if 0 not in self._pos:
            raise NetworkError("substation bus 0 is missing")
        # Positions follow ids, so the substation is position 0 and every
        # children list below fills in ascending bus-id order.
        if self.buses[0].parent is not None:
            raise NetworkError("substation bus 0 must not have a parent")
        if self.buses[0].phases != PHASES:
            raise NetworkError("substation bus 0 must carry phases a, b, c")

        cells = []
        parent = [-1] * n
        self.children_pos: list[list[int]] = [[] for _ in range(n)]
        for k, b in enumerate(self.buses):
            if not b.phases:
                raise NetworkError(f"bus {b.id} has no phases")
            codes = [PHASE_CODE.get(ph) for ph in b.phases]
            if None in codes:
                raise NetworkError(f"bus {b.id} has an unknown phase")
            if codes != sorted(set(codes)):
                raise NetworkError(f"bus {b.id} phases must be distinct and sorted a<b<c")
            cells += [3 * k + c for c in codes]
            if k == 0:
                continue
            if b.parent is None:
                raise NetworkError(f"bus {b.id} has no parent")
            if b.parent not in self._pos:
                raise NetworkError(f"bus {b.id} references unknown parent {b.parent}")
            if b.parent == b.id:
                raise NetworkError(f"not a tree: bus {b.id} is its own parent")
            parent[k] = self._pos[b.parent]
            self.children_pos[parent[k]].append(k)
        self.parent_pos = np.array(parent, dtype=np.int64)
        self.phase_mask = np.zeros((n, 3), dtype=bool)
        self.phase_mask.reshape(-1)[cells] = True

        # Exactly one line per non-root bus, endpoints agreeing with parents.
        if len(lines) != n - 1:
            raise NetworkError(
                f"not a tree: {len(lines)} lines for {n} buses (need {n - 1})"
            )
        fed = [False] * n
        self.z_line = np.zeros((n, 3, 3), dtype=np.complex128)
        for ln in lines:
            if ln.to_bus not in self._pos or ln.from_bus not in self._pos:
                raise NetworkError(f"line ({ln.from_bus},{ln.to_bus}) references unknown bus")
            k = self._pos[ln.to_bus]
            if fed[k]:
                raise NetworkError(f"not a tree: bus {ln.to_bus} has two incoming lines")
            if self.buses[k].parent != ln.from_bus:
                raise NetworkError(
                    f"line ({ln.from_bus},{ln.to_bus}) disagrees with bus {ln.to_bus}'s "
                    f"parent {self.buses[k].parent}"
                )
            fed[k] = True
            self.z_line[k] = ln.z

        # One DFS preorder, children in ascending bus-id order: bus k's
        # subtree is order[tin[k] : tin[k] + size[k]]. Parent pointers all
        # resolve, so anything the DFS leaves unreached sits on a cycle.
        depth = [-1] * n
        depth[0] = 0
        order = []
        stack = [0]
        while stack:
            k = stack.pop()
            order.append(k)
            for c in reversed(self.children_pos[k]):
                depth[c] = depth[k] + 1
                stack.append(c)
        if len(order) != n:
            missing = sorted(self.buses[k].id for k in range(n) if depth[k] < 0)
            raise NetworkError(f"not a tree: buses {missing} are not reachable from bus 0")
        self.depth = np.array(depth, dtype=np.int64)
        self.order = np.array(order, dtype=np.int64)
        self.tin = np.empty(n, dtype=np.int64)
        self.tin[self.order] = np.arange(n)
        size = [1] * n
        for k in order[:0:-1]:
            size[parent[k]] += size[k]
        self.size = np.array(size, dtype=np.int64)

        # Phases may only drop moving away from the substation, and a line's
        # phase set must equal its child's. Rows follow bus ids, so the first
        # offending row names the lowest offending bus id.
        drop = self.phase_mask[1:] & ~self.phase_mask[self.parent_pos[1:]]
        if drop.any():
            k, c = np.argwhere(drop)[0].tolist()
            b = self.buses[k + 1]
            raise NetworkError(
                f"bus {b.id}: phase {PHASE_NAME[c]} not present on parent bus {b.parent}"
            )
        nonzero = self.z_line != 0
        stray = (nonzero.any(axis=2) | nonzero.any(axis=1)) & ~self.phase_mask
        if stray.any():
            k, c = np.argwhere(stray)[0].tolist()
            b = self.buses[k]
            raise NetworkError(
                f"line ({b.parent},{b.id}) has impedance on phase "
                f"{PHASE_NAME[c]} absent from bus {b.id}"
            )
        non_finite = ~np.isfinite(self.z_line).all(axis=(1, 2))
        negative = (self.z_line.diagonal(axis1=1, axis2=2).real < 0).any(axis=1)
        for bad, what in ((non_finite, "a non-finite impedance"),
                          (negative, "negative series resistance")):
            if bad.any():
                b = self.buses[int(np.argmax(bad))]
                raise NetworkError(f"line ({b.parent},{b.id}) has {what}")

        # Root-path prefix sums of the zero-padded per-child line impedances.
        self.z_prefix = np.zeros((n, 3, 3), dtype=np.complex128)
        for k in order[1:]:
            self.z_prefix[k] = self.z_prefix[parent[k]] + self.z_line[k]

        # Flat (bus, phase) index space, bus-id-major, phase-minor: the cells
        # of phase_mask that are set, after the substation's three.
        self.flat_bus_pos, self.flat_phase = np.divmod(np.flatnonzero(self.phase_mask)[3:], 3)
        self.n_flat = len(self.flat_phase)
        self.index_of = np.full((n, 3), -1, dtype=np.int64)
        self.index_of[self.flat_bus_pos, self.flat_phase] = np.arange(self.n_flat)

        # The whole tree as one Forest: a tree array has shape (3, n_buses),
        # phase by DFS column, where column r is bus order[r]. flat_cell is
        # each flat index's cell in a raveled tree array.
        self.flat_cell = self.flat_phase * n + self.tin[self.flat_bus_pos]
        _, self.forest = self.subforest(self.order)

    # -- basic lookups ---------------------------------------------------

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def bus_pos(self, bus_id: int) -> int:
        try:
            return self._pos[bus_id]
        except KeyError:
            raise NetworkError(f"unknown bus id {bus_id}") from None

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
        return Line(self.buses[k].parent, bus_id, self.z_line[k])

    def flat_index(self, bus_id: int, phase: str | int) -> int:
        idx = self.index_of[self.bus_pos(bus_id), phase_code(phase)]
        if idx < 0:
            raise NetworkError(f"bus {bus_id} does not carry phase {phase}")
        return int(idx)

    def flat_labels(self) -> list[tuple[int, str]]:
        """(bus id, phase) per flat index, in index order."""
        return [
            (self.buses[k].id, PHASE_NAME[c])
            for k, c in zip(self.flat_bus_pos, self.flat_phase)
        ]

    # -- forests over the DFS columns ---------------------------------------

    def subforest(self, buses) -> tuple[np.ndarray, "Forest"]:
        """The forest that a set of bus positions spans, in DFS order.

        Every bus's parent must be in the set unless the bus is one of the
        forest's tops. A top's column carries its whole root path, so the
        forest's ancestor sums add up to common-path impedances; two buses
        under different tops meet at zero impedance, which holds when the
        tops' parents are the substation or a top is the substation itself.
        The set may repeat buses.
        Returns (cols, forest): cols[a] is the column of buses[a].
        """
        t, cols = np.unique(self.tin[np.asarray(buses, dtype=np.int64)], return_inverse=True)
        nodes = self.order[t]
        exit_ = np.searchsorted(t, t + self.size[nodes])
        z = self.z_line[nodes]
        top = ~np.isin(self.parent_pos[nodes], nodes)
        z[top] = self.z_prefix[nodes[top]]
        return cols, Forest(nodes, exit_, z)

    # -- path and impedance queries ---------------------------------------

    def path_to_root(self, bus_id: int) -> list[tuple[int, int]]:
        """Lines on the unique substation-to-bus path, ordered outward."""
        k = self.bus_pos(bus_id)
        rev = []
        while self.parent_pos[k] >= 0:
            p = self.parent_pos[k]
            rev.append((self.buses[p].id, self.buses[k].id))
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
        return self.buses[self._lca_walk(self.bus_pos(i), self.bus_pos(j))].id

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

def read_document(document: dict | str | Path, what: str) -> dict:
    """The JSON object at a path, or a parsed document; anything else raises NetworkError."""
    if isinstance(document, (str, Path)):
        try:
            document = json.loads(Path(document).read_text())
        except json.JSONDecodeError as exc:
            raise NetworkError(f"{what} document is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise NetworkError(f"{what} document must be a JSON object")
    return document


def document_entries(document: dict, key: str, what: str, entry: str, parse, error=NetworkError):
    """Each entry of the JSON array under key, read by parse; [] when absent.

    A non-array raises NetworkError; an entry that parse rejects raises error.
    """
    values = document.get(key, [])
    if not isinstance(values, list):
        raise NetworkError(f"{what} document field {key!r} must be a JSON array")
    parsed = []
    for value in values:
        try:
            parsed.append(parse(value))
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"malformed {entry} entry {value!r}: {exc}") from exc
    return parsed


def document_keys(value, keys: tuple[str, ...], what: str) -> dict:
    """value, a JSON object holding no key outside keys; else NetworkError naming what."""
    if not isinstance(value, dict):
        raise NetworkError(f"{what} must be a JSON object")
    for key in value:
        if key not in keys:
            raise NetworkError(f"{what} has unknown key {key!r}")
    return value


def json_number(value) -> float:
    """A JSON number as a float; a string, a bool or anything else raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def document_number(document: dict, key: str, default: float | None, what: str) -> float:
    """The number under key, or default when absent; anything else raises NetworkError."""
    try:
        return json_number(document.get(key, default))
    except TypeError:
        raise NetworkError(f"{what} document field {key!r} must be a number") from None


def document_id(value) -> int:
    """A bus id as written in a document: an integer, or an integral float such as 3.0.

    A string or a bool raises TypeError, a fraction ValueError.
    """
    if not json_number(value).is_integer():
        raise ValueError(f"bus id {value!r} is not an integer")
    return int(value)


def document_phase(value) -> str:
    """A phase as written in a document: the string "a", "b" or "c"; else ValueError."""
    if not isinstance(value, str) or value not in PHASE_CODE:
        raise ValueError(f"unknown phase {value!r}")
    return value


def _read_bus(entry: dict) -> Bus:
    document_keys(entry, ("id", "phases", "parent"), "entry")
    phases, parent = entry["phases"], entry.get("parent")
    if not isinstance(phases, list):
        raise TypeError(f"phases {phases!r} is not a JSON array")
    phases = tuple(sorted(map(document_phase, phases)))
    return Bus(document_id(entry["id"]), phases, None if parent is None else document_id(parent))


def _read_line(entry: dict) -> Line:
    document_keys(entry, ("from", "to", "z"), "entry")
    frm, to = document_id(entry["from"]), document_id(entry["to"])
    pairs = entry.get("z", {})
    if not isinstance(pairs, dict):
        raise NetworkError(f"line ({frm},{to}): field 'z' must be a JSON object")
    z = np.zeros((3, 3), dtype=np.complex128)
    for key, val in pairs.items():
        if len(key) != 2 or key[0] not in PHASE_CODE or key[1] not in PHASE_CODE:
            raise NetworkError(f"line ({frm},{to}): bad impedance key {key!r}")
        if not (isinstance(val, (list, tuple)) and len(val) == 2):
            raise NetworkError(f"line ({frm},{to}): impedance {key!r} must be [re, im]")
        real, imag = json_number(val[0]), json_number(val[1])
        z[PHASE_CODE[key[0]], PHASE_CODE[key[1]]] = complex(real, imag)
    return Line(from_bus=frm, to_bus=to, z=z)


def load_network(document: dict | str | Path) -> Network:
    """Build a validated Network from a JSON document, path, or parsed dict.

    Entries are read by document_entries, phases by document_phase; a key
    outside the schema is rejected by document_keys.
    """
    document = document_keys(
        read_document(document, "network"), ("base_v_squared", "buses", "lines"),
        "network document",
    )
    for key in ("buses", "lines"):
        if key not in document:
            raise NetworkError(f"network document lacks key {key!r}")
    buses = document_entries(document, "buses", "network", "bus", _read_bus)
    lines = document_entries(document, "lines", "network", "line", _read_line)
    base_v_squared = document_number(document, "base_v_squared", 1.0, "network")
    return Network(buses, lines, base_v_squared=base_v_squared)


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
