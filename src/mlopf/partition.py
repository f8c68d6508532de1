"""Two-level subtree clustering of a radial feeder.

Areas are full subtrees (a root bus plus every descendant); each area may
be subdivided into disjoint full subtrees (subareas) plus a remainder.
Buses outside every area form the unclustered set. Full-subtree closure is
what licenses the multilevel coupling engines: any two buses in disjoint
subtrees share the common path of the subtree roots, and a bus outside a
subtree shares the root's common path with every bus inside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .network import Network, NetworkError, document_array, read_document


@dataclass(frozen=True)
class Subarea:
    index: int                 # position within the parent area
    root: int                  # bus id
    members: frozenset[int]    # bus ids, root included


@dataclass(frozen=True)
class Area:
    index: int
    root: int
    members: frozenset[int]
    subareas: tuple[Subarea, ...]
    remainder: frozenset[int]  # members not covered by any subarea


@dataclass(frozen=True)
class PartitionHierarchy:
    areas: tuple[Area, ...]
    unclustered: frozenset[int]

    @property
    def n_areas(self) -> int:
        return len(self.areas)


def _subtree_slice(net: Network, k: int):
    """Positions of bus position k's subtree, k first, in DFS preorder."""
    return net.order[net.tin[k]: net.tin[k] + net.size[k]]


def _subtree_ids(net: Network, root: int) -> frozenset[int]:
    subtree = _subtree_slice(net, net.bus_pos(root))
    return frozenset(net.buses[k].id for k in subtree.tolist())


def validate_partition(net: Network, part: PartitionHierarchy) -> list[str]:
    """Check every scope against its parent, then the remainders and coverage.

    One check runs for each area against the feeder and for each subarea
    against its area. The substation roots no scope, every id is a known
    bus other than the substation and the root lies inside the parent; a
    scope that fails one of these is not checked further. Its members must
    then be exactly the root's subtree, hold no bus an earlier sibling
    claimed, and carry no phase the root lacks. Once its subareas are checked, an area's
    remainder must be its members minus the subareas' claimed members.
    The unclustered set must be known buses other than the substation,
    disjoint from the areas, and cover every bus they leave out.

    Returns a list of violation descriptions; empty means the partition is
    valid for every coupling engine.
    """
    problems: list[str] = []
    all_ids = {b.id for b in net.buses if b.id != 0}

    def check_ids(ids, what):
        unknown = sorted(i for i in ids if i not in all_ids)
        if unknown:
            problems.append(f"{what}: unknown or substation bus ids {unknown}")
        return not unknown

    def check_scope(tag, root, members, parent_members, claimed):
        if root == 0:
            problems.append(f"{tag}: the substation cannot root an area")
            return False
        if not check_ids(members | {root}, tag):
            return False
        if root not in parent_members:
            problems.append(f"{tag}: root {root} is outside the area")
            return False
        closure = _subtree_ids(net, root)
        if members != closure:
            problems.append(
                f"{tag}: subtree closure violated at root {root}"
                f" (missing {sorted(closure - members)}, extra {sorted(members - closure)})"
            )
        for bid in members:
            if bid in claimed:
                problems.append(f"{tag}: bus {bid} already belongs to {claimed[bid]}")
            claimed[bid] = tag
        root_phases = set(net.bus(root).phases)
        for bid in members:
            if bid in all_ids and not set(net.bus(bid).phases) <= root_phases:
                problems.append(f"{tag}: root {root} lacks a phase carried by member {bid}")
        return True

    claimed: dict[int, str] = {}
    for area in part.areas:
        tag = f"area {area.index}"
        if not check_scope(tag, area.root, area.members, all_ids, claimed):
            continue
        sub_claimed: dict[int, str] = {}
        for sub in area.subareas:
            check_scope(
                f"{tag} subarea {sub.index}", sub.root, sub.members, area.members, sub_claimed
            )
        if area.remainder != area.members - set(sub_claimed):
            problems.append(f"{tag}: remainder is not members minus subarea members")

    if check_ids(part.unclustered, "unclustered set"):
        overlap = sorted(set(part.unclustered) & set(claimed))
        if overlap:
            problems.append(f"unclustered set overlaps areas at buses {overlap}")
        missing = sorted(all_ids - set(claimed) - set(part.unclustered))
        if missing:
            problems.append(f"buses {missing} belong to no area and are not unclustered")
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
    area_root_pos = _greedy_cuts(net, root_pos, target_area_size, forbid={root_pos})

    areas = []
    clustered: set[int] = set()
    for k, rp in enumerate(area_root_pos):
        root_id = net.buses[rp].id
        members = _subtree_ids(net, root_id)
        clustered |= members
        subareas = []
        if target_subarea_size >= 1:
            sub_roots = _greedy_cuts(net, rp, target_subarea_size, forbid=set())
            for m, srp in enumerate(sub_roots):
                sid = net.buses[srp].id
                subareas.append(Subarea(index=m, root=sid, members=_subtree_ids(net, sid)))
        covered = set().union(*(s.members for s in subareas)) if subareas else set()
        areas.append(
            Area(
                index=k,
                root=root_id,
                members=members,
                subareas=tuple(subareas),
                remainder=frozenset(members - covered),
            )
        )
    all_ids = {b.id for b in net.buses if b.id != 0}
    return PartitionHierarchy(areas=tuple(areas), unclustered=frozenset(all_ids - clustered))


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
    cuts.sort(key=lambda k: net.buses[k].id)
    return cuts


# -- document I/O ---------------------------------------------------------

def load_partition(document: dict | str | Path, net: Network) -> PartitionHierarchy:
    """Build a partition from its document; members derive from the roots."""
    document = read_document(document, "partition")
    areas = []
    claimed: set[int] = set()
    for k, entry in enumerate(document_array(document, "areas", "partition")):
        try:
            root = int(entry["root"])
            sub_roots = [int(sentry["root"]) for sentry in entry.get("subareas", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise NetworkError(f"malformed area entry {entry!r}: {exc}") from exc
        members = _subtree_ids(net, root)
        subareas = tuple(
            Subarea(index=m, root=sroot, members=_subtree_ids(net, sroot))
            for m, sroot in enumerate(sub_roots)
        )
        covered = set().union(*(s.members for s in subareas))
        areas.append(
            Area(
                index=k,
                root=root,
                members=members,
                subareas=subareas,
                remainder=frozenset(members - covered),
            )
        )
        claimed |= members
    all_ids = {b.id for b in net.buses if b.id != 0}
    return PartitionHierarchy(areas=tuple(areas), unclustered=frozenset(all_ids - claimed))


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
