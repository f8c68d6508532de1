"""Two-level subtree clustering of a radial feeder.

Areas are full subtrees (a root bus plus every descendant); each area may
be subdivided into disjoint full subtrees (subareas). A partition holds
only the roots: a scope's buses are its root's DFS range, read through
`subtree_ids`, so closure holds by construction, and every membership
question here is a comparison of DFS ranges. An area's buses outside
its subareas are its remainder, and buses outside every area form the
unclustered set (`unclustered`). Full-subtree closure is what licenses
the multilevel coupling engines: any two buses in disjoint subtrees share
the common path of the subtree roots, and a bus outside a subtree shares
the root's common path with every bus inside it. The greedy partitioner
cuts a bus when its subtree size qualifies and no bus below it does, one
count over a DFS range, so its cuts depend on no walk order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .documents import document_columns, document_id, document_keys, id_column, read_document
from .network import Network


@dataclass(frozen=True)
class Subarea:
    index: int                 # position within the parent area
    root: int                  # bus id


@dataclass(frozen=True)
class Area:
    index: int
    root: int
    subareas: tuple[Subarea, ...]


@dataclass(frozen=True)
class PartitionHierarchy:
    areas: tuple[Area, ...]

    @property
    def n_areas(self) -> int:
        return len(self.areas)


def _subtree_slice(net: Network, k: int):
    """Positions of bus position k's subtree, k first, in DFS preorder."""
    return net.order[net.tin[k]: net.tin[k] + net.size[k]]


def subtree_ids(net: Network, root: int) -> frozenset[int]:
    """Bus ids of root's subtree, root included."""
    subtree = _subtree_slice(net, net.bus_pos(root))
    return frozenset(net.ids[subtree].tolist())


def unclustered(net: Network, part: PartitionHierarchy) -> frozenset[int]:
    """Bus ids outside every area, the substation excluded."""
    public = np.ones(net.n_buses, dtype=bool)
    for area in part.areas:
        public[_subtree_slice(net, net.bus_pos(area.root))] = False
    return frozenset(net.ids[1:][public[1:]].tolist())


def validate_partition(net: Network, part: PartitionHierarchy) -> list[str]:
    """Check every scope against its parent scope and its earlier siblings.

    Each area is checked against the feeder, then each of its subareas
    against the area. The index is an integer (not a bool) no earlier
    sibling holds, the root a bus id as document_id reads one, not the
    substation, a known bus and, for a subarea, in its area's DFS range; a
    scope failing one of these is not checked further. Its buses must then
    hold none an earlier sibling claimed, which catches nested and
    repeated roots; each such bus, in id order, names its latest owner.

    Returns a list of violation descriptions; empty means the partition is
    valid for every coupling engine.
    """
    problems: list[str] = []

    def check(scopes, kind: str, lo: int, hi: int) -> None:
        """Check sibling scopes inside their parent scope's DFS range [lo, hi)."""
        owner = np.full(hi - lo, -1)  # per DFS slot, the latest sibling to claim its bus
        held: set[int] = set()
        for j, scope in enumerate(scopes):
            tag = f"{kind} {scope.index}"
            k, problem = _check_scope(net, scope, held, lo, hi)
            if problem:
                problems.append(f"{tag}: {problem}")
                continue
            first, size = net.tin[k], net.size[k]
            earlier = owner[first - lo: first - lo + size]
            claimed = np.flatnonzero(earlier >= 0)
            bids = net.ids[net.order[first + claimed]].tolist()
            for bid, o in sorted(zip(bids, earlier[claimed].tolist())):
                problems.append(f"{tag}: bus {bid} already belongs to {kind} {scopes[o].index}")
            earlier[:] = j
            check(getattr(scope, "subareas", ()), f"{tag} subarea", first, first + size)

    check(part.areas, "area", 0, net.n_buses)
    return problems


def _check_scope(net: Network, scope, held: set[int], lo: int, hi: int) -> tuple[int, str | None]:
    """scope's root position, or the first rule it fails; held gathers the sibling indices."""
    index = scope.index
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        return -1, f"index {index!r} is not an integer"
    if index in held:
        return -1, f"index {index} is held by an earlier sibling"
    held.add(index)
    try:
        root = document_id(scope.root)
    except (TypeError, ValueError) as exc:
        return -1, str(exc)
    if root == 0:
        return -1, "the substation cannot root an area"
    k = int(net.bus_positions(root))
    if k < 0:
        return -1, f"unknown bus id {root}"
    if not lo <= net.tin[k] < hi:
        return -1, f"root {root} is outside the area"
    return k, None


def size_targets(n_buses: int, area: int | None = None, subarea: int | None = None):
    """Area and subarea size targets: n_buses // 4 and area // 3, at least 2, unless given."""
    area = max(2, n_buses // 4) if area is None else area
    subarea = max(2, area // 3) if subarea is None else subarea
    return area, subarea


def auto_partition(
    net: Network, target_area_size: int, target_subarea_size: int = 0
) -> PartitionHierarchy:
    """Deterministic greedy clustering into full-subtree areas.

    A bus other than the substation is cut as an area root when its
    subtree size lies in [target, 2 * target] and no bus below it has
    such a size (_greedy_cuts). Ancestors of a cut are never cut, so every
    area is a full subtree of the original tree, and the cuts depend on no
    walk order. The same rule runs inside each area with the subarea
    target; a subarea target of 0 cuts nothing.
    """
    if target_area_size < 1 or target_subarea_size < 0:
        raise ValueError("size targets must be positive")
    return PartitionHierarchy(tuple(
        Area(k, int(net.ids[a]), tuple(
            Subarea(m, int(net.ids[s]))
            for m, s in enumerate(_greedy_cuts(net, a, target_subarea_size))
        ))
        for k, a in enumerate(_greedy_cuts(net, 0, target_area_size))
    ))


def _greedy_cuts(net: Network, root_pos: int, target: int) -> list[int]:
    """Positions of the cut subtree roots in root_pos's subtree, ascending.

    A bus other than the substation qualifies when its subtree size lies
    in [target, 2 * target]; it is cut unless a cut below blocks it. A
    subtree holds a cut exactly when it holds a qualifying bus (its
    deepest one is never blocked), so a bus is cut exactly when it is the
    only qualifying bus of its subtree: one prefix count over the DFS range.
    """
    subtree = _subtree_slice(net, root_pos)
    size = net.size[subtree]
    qualifies = (target <= size) & (size <= 2 * target) & (subtree != 0)
    count = np.cumsum(qualifies)
    alone = count[np.arange(len(subtree)) + size - 1] == count  # no qualifying bus below
    return np.sort(subtree[qualifies & alone]).tolist()


# -- document I/O ---------------------------------------------------------

def load_partition(document: dict | str | Path, net: Network) -> PartitionHierarchy:
    """Build a partition from its document of roots.

    net is not read: validate_partition checks the roots against it. A key
    outside the schema is rejected by document_keys.
    """
    document = document_keys(read_document(document, "partition"), ("areas",),
                              "partition document")
    areas = document_columns(document, "areas", "partition", "area", {
        "root": id_column, "subareas": (_subarea_column, []),
    })
    return PartitionHierarchy(tuple(
        Area(k, root, tuple(Subarea(m, sub) for m, sub in enumerate(subareas)))
        for k, (root, subareas) in enumerate(zip(areas["root"].tolist(), areas["subareas"]))
    ))


def _subarea_column(values: list, columns=None) -> list:
    """Each area's subarea roots, as a list of ids per area."""
    return [
        [document_id(document_keys(sub, ("root",), "subarea")["root"]) for sub in subareas]
        for subareas in values
    ]


def partition_to_document(part: PartitionHierarchy) -> dict:
    return {
        "areas": [
            {
                "root": area.root,
                "subareas": [{"root": sub.root} for sub in area.subareas],
            }
            for area in part.areas
        ]
    }


def save_partition(part: PartitionHierarchy, path: str | Path) -> None:
    Path(path).write_text(json.dumps(partition_to_document(part), indent=2) + "\n")
