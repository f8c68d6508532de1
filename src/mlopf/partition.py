"""Two-level subtree clustering of a radial feeder.

Areas are full subtrees (a root bus plus every descendant); each area may
be subdivided into disjoint full subtrees (subareas). A partition holds
only the roots: a scope's buses are its root's DFS slice, read through
`subtree_ids`, so closure holds by construction. An area's buses outside
its subareas are its remainder, and buses outside every area form the
unclustered set (`unclustered`). Full-subtree closure is what licenses
the multilevel coupling engines: any two buses in disjoint subtrees share
the common path of the subtree roots, and a bus outside a subtree shares
the root's common path with every bus inside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

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
    clustered = frozenset().union(*(subtree_ids(net, a.root) for a in part.areas))
    return frozenset(net.ids[1:].tolist()) - clustered


def validate_partition(net: Network, part: PartitionHierarchy) -> list[str]:
    """Check every root against its parent scope and its earlier siblings.

    One check runs for each area against the feeder and for each subarea
    against its area. The root is a bus id as document_id reads one, the
    substation roots no scope, the root is a known bus and, for a subarea,
    lies inside its area; a scope that fails one of these is not checked
    further. Its buses must then hold none an earlier sibling claimed,
    which catches nested and repeated roots.

    Returns a list of violation descriptions; empty means the partition is
    valid for every coupling engine.
    """
    problems: list[str] = []
    all_ids = set(net.ids[1:].tolist())

    def check_scope(tag, root, parent_ids, claimed):
        """The root's subtree once its buses are claimed; None for an invalid root."""
        try:
            root = document_id(root)
        except (TypeError, ValueError) as exc:
            problems.append(f"{tag}: {exc}")
            return None
        if root == 0:
            problems.append(f"{tag}: the substation cannot root an area")
            return None
        if root not in all_ids:
            problems.append(f"{tag}: unknown bus id {root}")
            return None
        if root not in parent_ids:
            problems.append(f"{tag}: root {root} is outside the area")
            return None
        ids = subtree_ids(net, root)
        for bid in sorted(ids):
            if bid in claimed:
                problems.append(f"{tag}: bus {bid} already belongs to {claimed[bid]}")
            claimed[bid] = tag
        return ids

    claimed: dict[int, str] = {}
    for area in part.areas:
        tag = f"area {area.index}"
        area_ids = check_scope(tag, area.root, all_ids, claimed)
        if area_ids is None:
            continue
        sub_claimed: dict[int, str] = {}
        for sub in area.subareas:
            check_scope(f"{tag} subarea {sub.index}", sub.root, area_ids, sub_claimed)
    return problems


def size_targets(n_buses: int, area: int | None = None, subarea: int | None = None):
    """Area and subarea size targets: n_buses // 4 and area // 3, at least 2, unless given."""
    area = max(2, n_buses // 4) if area is None else area
    subarea = max(2, area // 3) if subarea is None else subarea
    return area, subarea


def auto_partition(
    net: Network, target_area_size: int, target_subarea_size: int = 0
) -> PartitionHierarchy:
    """Deterministic greedy clustering into full-subtree areas.

    Walks the tree children before parents and cuts a bus as an area root
    the first time its subtree size reaches the target, provided the
    subtree is intact (no descendant already cut) and not larger than
    twice the target. Ancestors of a cut are never cut, so every area is a
    full subtree of the original tree. The same rule runs inside each area
    with the subarea target when one is given.
    """
    if target_area_size < 1 or target_subarea_size < 0:
        raise ValueError("size targets must be positive")

    root_pos = net.bus_pos(0)
    areas = []
    for k, rp in enumerate(_greedy_cuts(net, root_pos, target_area_size, forbid={root_pos})):
        sub_roots = (
            _greedy_cuts(net, rp, target_subarea_size, forbid=set())
            if target_subarea_size >= 1 else []
        )
        subareas = tuple(Subarea(m, int(net.ids[srp])) for m, srp in enumerate(sub_roots))
        areas.append(Area(k, int(net.ids[rp]), subareas))
    return PartitionHierarchy(tuple(areas))


def _greedy_cuts(net: Network, scope_root_pos: int, target: int, forbid: set[int]) -> list[int]:
    """Positions of cut subtree roots under the greedy size rule.

    Walks the subtree at scope_root_pos children before parents; a node is
    cut when its intact subtree size lands in [target, 2 * target].
    Cutting blocks every ancestor. Among the ascending sizes on a root path
    the rule fires at the deepest qualifying node, and each decision reads
    only the node's own subtree, so the cuts do not depend on walk order.
    """
    blocked: set[int] = set()  # a descendant was cut
    cuts: list[int] = []
    for k in _subtree_slice(net, scope_root_pos)[::-1].tolist():
        if k in blocked:
            blocked.add(int(net.parent_pos[k]))
        elif k not in forbid and target <= net.size[k] <= 2 * target:
            cuts.append(k)
            blocked.add(int(net.parent_pos[k]))
    cuts.sort()
    return cuts


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
