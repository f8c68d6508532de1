"""Dual-weighted sensitivity sums by one engine over a tree of scopes.

The primal gradient of the voltage-regulation Lagrangian needs, at every
flat index (i, phi),

    g_p(i, phi) = sum over (j, psi) of dv(j,psi)/dp(i,phi) * (mu_up - mu_lo)(j, psi)
    g_q(i, phi) = likewise with dv/dq,

which is R^T d and X^T d for d = mu_upper - mu_lower. Every engine walks a
tree of subtree scopes: the feeder and, below it, 0, 1 or 2 levels of
areas and subareas. A scope's remainder is its members outside every
child scope. Every scope, leaf or not, runs one kernel: a product with
[child aggregates; remainder duals], whose rows and columns are flat
indices: each child's slots, its anchor (the child root's parent) at the
phases the child root carries, then the remainder. Pairs across two
children collapse to one anchor-to-anchor impedance times the other
child's per-phase dual aggregate, a remainder bus meets a child only
through the child's anchor, and pairs inside the remainder are exact.
Each scope measures common paths from its anchor, its root's parent (the
substation for the feeder), so a child's own slot pair carries the path
between the two anchors and the levels telescope to the dense entry; a
child anchored where its scope is has no slot. While every remainder is
small, each kernel is a dense block, sensitivity.sensitivity_block at its
rows and anchor, which the operand multiplies from the left; a tree with
a remainder of SWEEP_MIN_REMAINDER flat indices or more holds none, and
one sensitivity.adjoint_sweep over one Forest, each scope's rows a row of
it, gives every kernel in O(N). Every aggregate, the per-phase sum of a
scope's members' duals, comes from one bincount. The flat engine is the
feeder scope alone, whose block is the dense R over X; depth 1 is the
bi-level engine and depth 2 the tri-level one. The depths are
algebraically equal; the deeper ones replace almost all of the N^2
pairwise work with aggregate exchanges, which is also what keeps per-bus
duals and interior topology inside their scope. An engine given a
FlowRecord records once what each scope reads, as the JSON objects that
audit.jsonl holds, and privacy_audit checks those same objects.

Operation counts follow a declared cost model (complex multiply-accumulate,
rotation, and real/imaginary extraction each count one; the flat engine
counts 2 N^2 real multiply-adds per output vector), so measured complexity
is reproducible across machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .network import Network
from .partition import (
    PartitionHierarchy, _subtree_slice, subtree_ids, unclustered, validate_partition,
)
from .sensitivity import SensitivityMatrices, adjoint_sweep, sensitivity_block


# A scope tree with a remainder of at least this many flat indices sweeps
# every scope in one tree sweep; any other keeps a dense block per scope.
# All or none, since each side pays its own fixed cost per apply. Every
# remainder of uv300 (at most 164), where sweeping all is slower, and of
# the acceptance feeders (285) stays dense, with the op counts they pin.
SWEEP_MIN_REMAINDER = 512


class EngineError(ValueError):
    """Invalid partition or mismatched dimensions for a coupling engine."""


@dataclass
class CouplingResult:
    """One engine apply: g = [g_p; g_q], and its declared op count.

    messages, the aggregates the scopes exchanged, is built on first access
    by build_messages; a solve never reads it.
    """

    g: np.ndarray  # shape (2, n): rows g_p = R^T d and g_q = X^T d
    op_count: int
    build_messages: Callable[[], tuple["AggregateMessage", ...]] = field(repr=False)

    @property
    def g_p(self) -> np.ndarray:
        return self.g[0]

    @property
    def g_q(self) -> np.ndarray:
        return self.g[1]

    @cached_property
    def messages(self) -> tuple["AggregateMessage", ...]:
        return self.build_messages()


@dataclass(frozen=True)
class AggregateMessage:
    """The only cross-scope payload: per-phase dual sums plus the root id."""

    scope: tuple          # ("area", k) or ("subarea", k, m)
    root: int
    sums: tuple[float, float, float]


# -- information-flow recording ---------------------------------------------

@dataclass
class FlowRecord:
    """Structural record of what data each scope consumed, recorded once at construction.

    Each event is the JSON object that audit.jsonl holds, of plain ints and
    strings, and privacy_audit reads the same objects: dual_read (scope,
    basis, count, flat_indices), z_access (scope, kind, row_buses, col_buses,
    each sorted and distinct), aggregate (producer, consumer) and
    global_access (note); a scope is an array such as ["area", 2]. Engines
    touch the same index sets on every apply, so applies only bump a counter.
    """

    engine: str = ""
    events: list[dict] = field(default_factory=list)
    applies: int = 0

    def dual_read(self, scope, basis, indices):
        indices = [int(i) for i in indices]
        self.events.append({
            "event": "dual_read", "scope": list(scope), "basis": basis,
            "count": len(indices), "flat_indices": indices,
        })

    def z_access(self, scope, kind, row_buses, col_buses):
        self.events.append({
            "event": "z_access", "scope": list(scope), "kind": kind,
            "row_buses": sorted(set(map(int, row_buses))),
            "col_buses": sorted(set(map(int, col_buses))),
        })

    def exchange(self, producer, consumer):
        self.events.append(
            {"event": "aggregate", "producer": list(producer), "consumer": list(consumer)}
        )

    def global_access(self, note):
        self.events.append({"event": "global_access", "note": note})

    def apply(self):
        self.applies += 1


def _flat_indices(net: Network, bus_ids) -> np.ndarray:
    pos = [net.bus_pos(b) for b in sorted(bus_ids)]
    if not pos:
        return np.zeros(0, dtype=np.int64)
    idx = net.index_of[pos].ravel()
    return np.sort(idx[idx >= 0])


def _exact_block_ops(size: int) -> int:
    return size * size + 5 * size


def _sweep_ops(buses: int) -> int:
    """Declared cost of adjoint_sweep over a forest that spans this many buses.

    A declared model that counts the sweep as complex work: per bus and
    phase, one add each for the subtree and ancestor sums and one
    rotation each on the way in and out; per bus, nine multiply-accumulates
    through the line. It counts neither the forest's columns nor the real
    sweep's float operations, and stays fixed so that declared counts stay
    comparable across versions: a gen4k trilevel apply declares 96,660.
    """
    return 21 * buses


def _level_op_count(intra_ops: list[int], cluster_sizes: list[int], rem: int) -> int:
    """Declared per-apply cost of a dense scope: its child clusters and remainder.

    The remainder's exact pairs cost _exact_block_ops: size^2 accumulates
    plus 5 per target (three rotations, two extractions). Each cluster then
    pays the root-to-root combine against the other clusters, the per-bus
    sums over the exterior set, and one add per member and output vector
    to broadcast the shared value. Exterior targets mirror the same
    structure.
    """
    c = len(cluster_sizes)
    ops = sum(intra_ops) + sum(cluster_sizes)
    for a in cluster_sizes:
        if c > 1:
            ops += 9 * (c - 1) + 15
        if rem > 0:
            ops += 3 * rem + 15
        ops += 2 * a
    if rem > 0:
        ops += _exact_block_ops(rem)
        if c > 0:
            ops += rem * (3 * c + 5)
    return ops


def _swept_op_count(intra_ops: list[int], cluster_sizes: list[int], buses: int) -> int:
    """Declared per-apply cost of a swept scope whose block of the forest spans this many buses.

    Its clusters' own costs, one add per member for their aggregates and
    two per member to broadcast the slot rows back, as in the dense model;
    the sweep, which carries every pair, at _sweep_ops' declared rate; and
    nine multiply-accumulates per cluster for its slots' 3x3 self-pair.
    Like _sweep_ops, a declared model.
    """
    return sum(intra_ops) + 3 * sum(cluster_sizes) + _sweep_ops(buses) + 9 * len(cluster_sizes)


class _Scope:
    """One node of the scope tree and the kernel that computes its share of g.

    The remainder is every member outside all child scopes; a leaf's is all
    of it. The kernel measures common paths from the scope's anchor, its
    root's parent (position 0, the substation, for the feeder). Its rows
    and columns are flat indices: each child's slots, then the remainder.
    A child root meets every bus outside its subtree where its parent, the
    child's anchor, does, so a child's slots are its anchor's flat indices,
    a remainder bus's, at the phases the child root carries; its own slot
    block is the path between the two anchors. A child anchored at the
    scope's anchor meets every other bus there, at zero: it has no slot.
    One product of [child aggregates; remainder duals] with the kernel is
    the scope's whole share of g: its R^T rows, then its X^T rows. gather
    picks the operand out of [d; aggregate rows], and g[out] adds the
    product's rows at take: a slot row to every member of its child with
    that phase, a remainder row to its own flat index.

    A dense engine's scope holds its kernel as R over X at the rows, shape
    (2, m, m), as sensitivity_block returns it or as handed in: the flat
    engine's lone scope holds SensitivityMatrices' own. A swept engine's
    scope holds none; its rows, closed upward since children are whole
    subtrees, are one row of the engine's forest.
    """

    def __init__(self, net, key, root, children, pos, block=None):
        self.key = key
        self.root = root
        self.children = children
        self.pos = pos
        if root is None:
            self.idx = np.arange(net.n_flat)
        else:
            held = net.index_of[_subtree_slice(net, net.bus_pos(root))]
            self.idx = np.sort(held[held >= 0])
        in_child = np.zeros(net.n_flat, dtype=bool)
        for ch in children:
            in_child[ch.idx] = True
        self.rem = self.idx[~in_child[self.idx]]
        self.anchor = 0 if root is None else int(net.parent_pos[net.bus_pos(root)])
        roots = [net.bus_pos(ch.root) for ch in children]
        anchors = net.parent_pos[roots]
        # present[k, phi]: child k has a slot at phase phi, numbered slot[k, phi].
        present = (net.index_of[roots] >= 0) & (anchors != self.anchor)[:, None]
        slot = np.cumsum(present).reshape(-1, 3) - 1
        s, m = int(present.sum()), len(self.rem)
        self.rows = rows = np.concatenate([net.index_of[anchors][present], self.rem])
        positions = np.array([ch.pos for ch in children], dtype=np.int64)
        aggregates = net.n_flat + 3 * positions[:, None] + np.arange(3)
        self.gather = np.concatenate([aggregates[present], self.rem])
        slotted = [(ch, slot[k]) for k, ch in enumerate(children) if anchors[k] != self.anchor]
        self.out = np.concatenate([ch.idx for ch, _ in slotted] + [self.rem])
        self.take = np.concatenate(
            [at[net.flat_phase[ch.idx]] for ch, at in slotted] + [s + np.arange(m)]
        )
        self.block = block


class _ScopeEngine:
    """Every engine's one compute over scopes, the tree in post-order (the feeder last)."""

    def __init__(self, net: Network, scopes: list[_Scope], record: FlowRecord | None):
        self.n = net.n_flat
        self.record = record
        self._scopes = scopes
        self._tree = scopes[-1]
        fused = any(s.block is None and len(s.rem) >= SWEEP_MIN_REMAINDER for s in scopes)
        for s in scopes:
            inner, sizes = [ch.ops for ch in s.children], [len(ch.idx) for ch in s.children]
            if fused:
                buses = int(np.count_nonzero(np.bincount(net.flat_bus_pos[s.rows])))
                s.ops = _swept_op_count(inner, sizes, buses)
                continue
            if s.block is None:
                s.block = sensitivity_block(net, s.rows, s.anchor)
            s.ops = _level_op_count(inner, sizes, len(s.rem))
        self.op_count_per_apply = self._tree.ops
        # One gather gives every scope's operand, scope k's at _spans[k]; the
        # products lie side by side in the same order, R^T rows over X^T
        # rows, and g_p and g_q are the sums of their entries _take at _out.
        self._gather = np.concatenate([s.gather for s in scopes])
        start = np.cumsum([0] + [len(s.gather) for s in scopes])
        self._spans = list(zip(start[:-1].tolist(), start[1:].tolist()))
        take = np.concatenate([first + s.take for first, s in zip(start, scopes)])
        out = np.concatenate([s.out for s in scopes])
        self._take = np.concatenate([take, start[-1] + take])
        self._out = np.concatenate([out, self.n + out])
        self._forest = None
        if fused:
            self._cols, self._forest = net.subforest(*[s.rows for s in scopes])
        # A child scope's aggregate row sums its members' duals by phase: one
        # bincount over (flat index, slot) pairs. The feeder scope, last in
        # post-order, is no child.
        below, none = scopes[:-1], np.zeros(0, dtype=np.int64)
        self._members = np.concatenate([none] + [s.idx for s in below])
        self._slots = np.concatenate([none] + [3 * s.pos + net.flat_phase[s.idx] for s in below])
        # Every child scope sends its aggregate to its parent, in post-order.
        self._senders = [(ch.key, ch.root, ch.pos) for s in scopes for ch in s.children]
        if record is not None:
            record.engine = self.name

    def compute(self, mu_upper: np.ndarray, mu_lower: np.ndarray) -> CouplingResult:
        mu_upper = np.asarray(mu_upper, dtype=np.float64)
        mu_lower = np.asarray(mu_lower, dtype=np.float64)
        if mu_upper.shape != (self.n,) or mu_lower.shape != (self.n,):
            raise EngineError(f"dual vectors must have shape ({self.n},)")
        d = mu_upper - mu_lower
        agg = np.bincount(self._slots, weights=d[self._members], minlength=3 * len(self._scopes))
        y = self._products(np.concatenate([d, agg])[self._gather])
        g = np.bincount(self._out, weights=y.take(self._take), minlength=2 * self.n).reshape(2, -1)
        if self.record is not None:
            self.record.apply()
        return CouplingResult(g, self.op_count_per_apply, partial(self._messages, agg))

    def _products(self, x: np.ndarray) -> np.ndarray:
        """Every scope's operand x[a:b], (a, b) its span, times its kernel: shape (2, len(x))."""
        if self._forest is None:
            return np.concatenate(
                [x[a:b] @ s.block for s, (a, b) in zip(self._scopes, self._spans)], axis=1
            )
        return adjoint_sweep(self._forest, self._cols, x)

    def _messages(self, agg: np.ndarray) -> tuple[AggregateMessage, ...]:
        """The aggregate each child scope sends its parent, from compute's aggregates."""
        sums = agg.reshape(-1, 3).tolist()
        return tuple(
            AggregateMessage(scope=key, root=root, sums=tuple(sums[k]))
            for key, root, k in self._senders
        )


class FlatEngine(_ScopeEngine):
    """The feeder scope alone; building it builds R over X, its block, which sens.r and .x view."""

    name = "flat"

    def __init__(self, sens: SensitivityMatrices, record: FlowRecord | None = None):
        scope = _Scope(sens.net, ("unclustered",), None, [], 0, block=sens._dense)
        super().__init__(sens.net, [scope], record)
        self.op_count_per_apply = 4 * self.n * self.n  # 2 N^2 per output vector
        if record is not None:
            record.global_access("dense engine reads every dual and every sensitivity entry")


class MultilevelEngine(_ScopeEngine):
    """Exact inside each innermost scope, aggregated across the scopes above.

    Depth 1 splits the feeder into its areas (the bi-level engine); depth 2
    splits every area again into its subareas (the tri-level engine).
    """

    def __init__(
        self, net: Network, part: PartitionHierarchy, depth: int, record: FlowRecord | None = None
    ):
        if depth not in (1, 2):
            raise EngineError(f"multilevel depth must be 1 or 2, got {depth!r}")
        if problems := validate_partition(net, part):
            raise EngineError("invalid partition: " + "; ".join(problems[:3]))
        self.name = "bilevel" if depth == 1 else "trilevel"
        self.net = net
        scopes: list[_Scope] = []  # post-order: children before parents

        def scope(key, root, children):
            s = _Scope(net, key, root, children, len(scopes))
            scopes.append(s)
            return s

        areas = [
            scope(("area", a.index), a.root, [
                scope(("subarea", a.index, s.index), s.root, [])
                for s in sorted(a.subareas, key=lambda s: s.index) if depth == 2
            ])
            for a in sorted(part.areas, key=lambda a: a.index)
        ]
        # The feeder's remainder is the public unclustered set, so its own
        # work runs in that scope.
        scope(("unclustered",), None, areas)
        super().__init__(net, scopes, record)
        if record is not None:
            self._record_flows(self._tree)

    def _record_flows(self, scope):
        """Record what scope and its descendants read, from the kernels' index arrays."""
        rec = self.record
        top = scope is self._tree
        rem_ids = self.net.ids[self.net.flat_bus_pos[scope.rem]].tolist()
        roots = [ch.root for ch in scope.children]
        for ch in scope.children:
            self._record_flows(ch)
            if rem_ids:
                rec.dual_read(ch.key, "exterior", scope.rem)
                rec.z_access(ch.key, "exterior_root", rem_ids, [ch.root])
            if len(roots) > 1:
                rec.z_access(ch.key, "root_root", roots, [ch.root])
                for other in scope.children:
                    if other is not ch:
                        rec.exchange(other.key, ch.key)
            if not top:
                # The child's aggregate is part of this scope's aggregate.
                rec.exchange(ch.key, scope.key)
        if rem_ids:
            rec.dual_read(scope.key, "members", scope.rem)
            rec.z_access(scope.key, "intra", rem_ids, rem_ids)
            if roots:
                rec.z_access(scope.key, "exterior_root", rem_ids, roots)
                if top:
                    for ch in scope.children:
                        rec.exchange(ch.key, scope.key)


ENGINE_KINDS = ("flat", "bilevel", "trilevel")  # make_engine's selectors


def check_engine_kind(kind: str) -> None:
    """Raise EngineError unless kind is one of ENGINE_KINDS."""
    if kind not in ENGINE_KINDS:
        raise EngineError(f"unknown engine {kind!r}")


def make_engine(
    kind: str,
    sens: SensitivityMatrices | None = None,
    net: Network | None = None,
    part: PartitionHierarchy | None = None,
    record: FlowRecord | None = None,
    threads: int = 1,
):
    """Engine factory keyed by the flat | bilevel | trilevel selector.

    threads is not used; every engine runs on one thread. The parameter
    stays for callers that still pass it.
    """
    check_engine_kind(kind)
    if kind == "flat":
        if sens is None:
            raise EngineError("flat engine needs sensitivity matrices")
        return FlatEngine(sens, record=record)
    if net is None or part is None:
        raise EngineError(f"{kind} engine needs a network and partition")
    return MultilevelEngine(net, part, 1 if kind == "bilevel" else 2, record=record)


# -- privacy audit ----------------------------------------------------------

@dataclass
class PrivacyReport:
    engine: str
    global_access: bool
    violations: list[str]
    events_checked: int

    @property
    def clean(self) -> bool:
        return not self.violations and not self.global_access


# The read kinds each event type may carry, and how a leak of each reads.
_LEAK_TEXT = {
    "dual read": {
        "members": "read per-bus duals at foreign flat indices",
        "exterior": "read per-bus duals at foreign flat indices",
    },
    "impedance access": {
        "intra": "touched interior lines of foreign buses",
        "root_root": "root-to-root access outside the root set:",
        "exterior_root": "exterior access beyond roots and public buses:",
    },
}


def _array_of(value, types: tuple) -> bool:
    """value is a JSON array whose entries each have exactly one of types (so a bool is no int)."""
    return type(value) is list and all(type(entry) in types for entry in value)


def _audit_rules(net: Network, part: PartitionHierarchy) -> dict:
    """allowed[scope][kind]: the flat indices or bus ids a scope may read."""
    def rules(members, exterior, exterior_idx, roots):
        return {
            "members": frozenset(map(int, _flat_indices(net, members))),
            "exterior": exterior_idx,
            "intra": members,
            "root_root": roots,
            "exterior_root": roots | exterior,
        }

    public = unclustered(net, part)
    public_idx = frozenset(map(int, _flat_indices(net, public)))
    area_roots = frozenset(a.root for a in part.areas)
    allowed = {("unclustered",): rules(public, public, frozenset(), area_roots)}
    for a in part.areas:
        members = subtree_ids(net, a.root)
        allowed[("area", a.index)] = rules(members, public | members, public_idx, area_roots)
        sub_members = [subtree_ids(net, s.root) for s in a.subareas]
        remainder = members.difference(*sub_members)
        remainder_idx = frozenset(map(int, _flat_indices(net, remainder)))
        sub_roots = frozenset(s.root for s in a.subareas)
        for s, s_members in zip(a.subareas, sub_members):
            allowed[("subarea", a.index, s.index)] = rules(
                s_members, remainder, remainder_idx, sub_roots
            )
    return allowed


def privacy_audit(record: FlowRecord, net: Network, part: PartitionHierarchy) -> PrivacyReport:
    """Check a flow record's events, the objects audit.jsonl holds, against per-scope read rules.

    Each scope, ("unclustered",), every area and every subarea, may read
    its own per-bus duals ("members") and impedances between its own buses
    ("intra"). An area may read the unclustered duals and a subarea its
    area's remainder ("exterior"); the unclustered scope reads no exterior
    duals. "root_root" pairs sibling roots: all area roots, or one area's
    subarea roots. "exterior_root" pairs those roots with the exterior
    buses, which for an area include its own members (its remainder to
    subarea root coefficients live there) and for the unclustered scope
    are its own buses. Any other item is a violation, and so is an event
    from a scope the partition lacks, of an unknown kind, of no kind
    FlowRecord records, or with a field missing or of the wrong JSON type
    (one violation naming the event). Aggregate exchanges never are: they
    are the mechanism that keeps everything else inside its scope. A
    partition that fails validate_partition has no scopes to check
    against: its problems are the report's violations.
    """
    names = [ev.get("event") if isinstance(ev, dict) else None for ev in record.events]
    global_access = "global_access" in names
    if problems := validate_partition(net, part):
        return PrivacyReport(record.engine, global_access, problems, events_checked=0)
    allowed = _audit_rules(net, part)
    violations: list[str] = []
    for name, ev in zip(names, record.events):
        if name in ("global_access", "aggregate"):
            continue
        if name == "dual_read":
            what, kind, fields = "dual read", ev.get("basis"), [ev.get("flat_indices")]
        elif name == "z_access":
            what, kind = "impedance access", ev.get("kind")
            fields = [ev.get("row_buses"), ev.get("col_buses")]
        else:
            violations.append(f"unknown event {ev!r}")
            continue
        scope = ev.get("scope")
        if not (_array_of(scope, (str, int)) and type(kind) is str
                and all(_array_of(field, (int,)) for field in fields)):
            violations.append(f"malformed {name} event {ev!r}")
            continue
        scope, items = tuple(scope), set().union(*fields)
        text = _LEAK_TEXT[what].get(kind)
        rules = allowed.get(scope)
        if text is None:
            violations.append(f"unknown {what} kind {kind!r}")
        elif rules is None:
            violations.append(f"{what} from unknown scope {scope}")
        elif leak := items - rules[kind]:
            violations.append(f"scope {scope} {text} {sorted(leak)[:5]}")
    return PrivacyReport(
        engine=record.engine,
        global_access=global_access,
        violations=violations,
        events_checked=len(record.events),
    )
