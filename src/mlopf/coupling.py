"""Dual-weighted sensitivity sums by a flat and a multilevel engine.

The primal gradient of the voltage-regulation Lagrangian needs, at every
flat index (i, phi),

    g_p(i, phi) = sum over (j, psi) of dv(j,psi)/dp(i,phi) * (mu_up - mu_lo)(j, psi)
    g_q(i, phi) = likewise with dv/dq,

which is R^T d and X^T d for d = mu_upper - mu_lower. The flat engine
computes exactly that with dense products. The multilevel engine walks a
tree of subtree scopes: the feeder, its areas and, at depth 2, each area's
subareas. A scope's remainder is its members outside every child scope.
Every scope, leaf or not, runs one kernel: a product with
[child aggregates; remainder duals], whose rows and columns are flat
indices: each child's slots, its anchor (the child root's parent) at the
phases the child root carries, then the remainder. Pairs across two
children collapse to one anchor-to-anchor impedance times the other
child's per-phase dual aggregate, a remainder bus meets a child only
through the child's anchor, and pairs inside the remainder are exact. A
child anchored at the substation meets everything else at zero impedance
and has no slot. While the remainder is small the kernel is a dense real
block, sensitivity.sensitivity_block at its rows transposed: the R^T and
X^T submatrix at those flat indices, the same entries the flat engine
multiplies, with each child's own slot block zero. From
SWEEP_MIN_REMAINDER flat indices on, where the block's m^2 work overtakes
a sweep's fixed cost, the whole kernel is one sensitivity.adjoint_sweep
over the forest its rows' buses span, with each child's aggregate at its
anchor: O(m + children) and without any block. A scope's own aggregate
is the per-phase sum of its members' duals, all aggregates coming from
one bincount before the products run, so the split repeats at every
level: depth 1 is the bi-level engine and depth 2 the tri-level one.
The engines are algebraically equal; the multilevel one replaces almost
all of the N^2 pairwise work with aggregate exchanges, which is also what
keeps per-bus duals and interior topology inside their scope.

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
from .sensitivity import SensitivityMatrices, adjoint_sweep, build_sensitivity, sensitivity_block


# A scope whose remainder holds at least this many flat indices runs its
# kernel as a tree sweep instead of a dense block. With
# BLAS on one thread the two cost the same at roughly 360-450 indices, and
# the sweep is twice as fast by 550. The constant sits above that
# crossover so that every remainder of the acceptance feeders (at most
# 285) and of uv300 (at most 164) keeps its dense block, and with it the
# declared op counts that the acceptance gates pin.
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
    build_messages: Callable[[], tuple["AggregateMessage", ...]] = field(
        default=tuple, repr=False
    )

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

@dataclass(frozen=True)
class DualRead:
    scope: tuple
    basis: str            # "members" (own per-bus duals) | "exterior" (public set)
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ZAccess:
    scope: tuple
    kind: str             # "intra" | "root_root" | "exterior_root"
    row_buses: tuple[int, ...]
    col_buses: tuple[int, ...]


@dataclass(frozen=True)
class AggregateExchange:
    producer: tuple
    consumer: tuple


@dataclass(frozen=True)
class GlobalAccess:
    note: str


@dataclass
class FlowRecord:
    """Structural record of what data each scope consumed.

    Engines touch the same index sets on every apply, so access patterns are
    recorded once at construction; applies only bump a counter.
    """

    engine: str = ""
    events: list = field(default_factory=list)
    applies: int = 0

    def dual_read(self, scope, basis, indices):
        self.events.append(DualRead(scope, basis, tuple(int(i) for i in indices)))

    def z_access(self, scope, kind, row_buses, col_buses):
        self.events.append(
            ZAccess(scope, kind, tuple(sorted(set(map(int, row_buses)))),
                    tuple(sorted(set(map(int, col_buses)))))
        )

    def exchange(self, producer, consumer):
        self.events.append(AggregateExchange(producer, consumer))

    def global_access(self, note):
        self.events.append(GlobalAccess(note))

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


def _sweep_ops(columns: int) -> int:
    """Declared cost of adjoint_sweep over a forest of this many columns.

    Per column and phase, one add each for the subtree and ancestor sums and
    one rotation each on the way in and out; per column, nine
    multiply-accumulates through the line.
    """
    return 21 * columns


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


def _swept_op_count(intra_ops: list[int], cluster_sizes: list[int], columns: int) -> int:
    """Declared per-apply cost of a swept scope over a forest of this many columns.

    Its clusters' own costs, one add per member for their aggregates and
    two per member to broadcast the slot rows back, as in the dense model;
    the sweep, which carries every pair; and nine multiply-accumulates per
    cluster to take its own 3x3 term back out.
    """
    return (
        sum(intra_ops) + 3 * sum(cluster_sizes) + _sweep_ops(columns) + 9 * len(cluster_sizes)
    )


class FlatEngine:
    """Direct dense products R^T d and X^T d.

    Given a matrix-free sens, the engine builds R and X from sens.net.
    """

    name = "flat"

    def __init__(self, sens: SensitivityMatrices, record: FlowRecord | None = None):
        if sens.r is None or sens.x is None:
            sens = build_sensitivity(sens.net)
        self.sens = sens
        self.n = sens.n
        self.record = record
        self.op_count_per_apply = 4 * self.n * self.n  # 2 N^2 per output vector
        if record is not None:
            record.engine = self.name
            record.global_access(
                "dense engine reads every dual and every sensitivity entry"
            )

    def compute(self, mu_upper: np.ndarray, mu_lower: np.ndarray) -> CouplingResult:
        d = _check_duals(mu_upper, mu_lower, self.n)
        g = np.stack((self.sens.r.T @ d, self.sens.x.T @ d))
        if self.record is not None:
            self.record.apply()
        return CouplingResult(g, self.op_count_per_apply)


def _check_duals(mu_upper, mu_lower, n) -> np.ndarray:
    mu_upper = np.asarray(mu_upper, dtype=np.float64)
    mu_lower = np.asarray(mu_lower, dtype=np.float64)
    if mu_upper.shape != (n,) or mu_lower.shape != (n,):
        raise EngineError(f"dual vectors must have shape ({n},)")
    return mu_upper - mu_lower


class _Scope:
    """One node of the scope tree and the kernel that computes its share of t.

    The remainder is every member outside all child scopes; a leaf's is all
    of it. The kernel's rows and columns are flat indices: each child's
    slots, then the remainder. A child root meets every bus outside its
    subtree where its parent, the child's anchor, does, so a child's slots
    are its anchor's flat indices at the phases the child root carries. A
    child anchored at the substation meets every other bus at zero
    impedance: it has no slot, and its members get nothing from this scope.
    One product of the kernel with [child aggregates; remainder duals] is
    the scope's whole share of t, returned as [2 Re; -2 Im], its shares of
    g_p and g_q. Each child's own slot block is zero, since pairs inside a
    child are the child's work. gather picks the operand out of
    [d; aggregate rows], and t[out] adds the product's rows at take: a slot
    row to every member of its child with that phase, a remainder row to
    its own flat index.

    A remainder of fewer than SWEEP_MIN_REMAINDER flat indices holds the
    kernel as one dense real block, R^T over X^T: sensitivity_block at the
    rows, transposed. A larger one holds no block. The rows' buses span a
    forest, closed upward inside the scope since children are whole
    subtrees, whose tops, if several, are the substation's children; each
    child's aggregate sits at its anchor's cells, and one adjoint_sweep
    over the forest meets every pair at its common ancestor. The sweep also
    pairs each child with itself. own, R^T over X^T at the slot rows kept
    only inside each child (every such pair is an anchor with itself), is
    subtracted from the slot rows once the sweep's result is real.
    """

    def __init__(self, net, key, root, children, pos):
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
        roots = [net.bus_pos(ch.root) for ch in children]
        anchors = net.parent_pos[roots]
        # present[k, phi]: child k has a slot at phase phi, numbered slot[k, phi].
        present = (net.index_of[roots] >= 0) & (anchors > 0)[:, None]
        slot = np.cumsum(present).reshape(-1, 3) - 1
        s, m = int(present.sum()), len(self.rem)
        self.rows = rows = np.concatenate([net.index_of[anchors][present], self.rem])
        positions = np.array([ch.pos for ch in children], dtype=np.int64)
        aggregates = net.n_flat + 3 * positions[:, None] + np.arange(3)
        self.gather = np.concatenate([aggregates[present], self.rem])
        slotted = [(ch, slot[k]) for k, ch in enumerate(children) if anchors[k] > 0]
        self.out = np.concatenate([ch.idx for ch, _ in slotted] + [self.rem])
        self.take = np.concatenate(
            [at[net.flat_phase[ch.idx]] for ch, at in slotted] + [s + np.arange(m)]
        )
        owner = np.nonzero(present)[0]
        own = owner[:, None] == owner  # slot pairs inside one child
        child_sizes = [len(ch.idx) for ch in children]
        self.forest = None
        if m < SWEEP_MIN_REMAINDER:
            block = np.ascontiguousarray(sensitivity_block(net, rows).transpose(0, 2, 1))
            block[:, :s, :s][:, own] = 0.0
            self.block = block.reshape(2 * len(rows), len(rows))
            self.ops = _level_op_count([ch.ops for ch in children], child_sizes, m)
        else:
            cols, self.forest = net.subforest(net.flat_bus_pos[rows])
            self.cells = net.flat_phase[rows] * self.forest.n + cols
            self.own = np.where(own, sensitivity_block(net, rows[:s]).transpose(0, 2, 1), 0.0)
            self.ops = _swept_op_count([ch.ops for ch in children], child_sizes, self.forest.n)

    def product(self, x: np.ndarray) -> np.ndarray:
        """[2 Re; -2 Im] of the kernel times its operand, gathered from x = [d; aggregates]."""
        x = x[self.gather]
        if self.forest is None:
            return self.block @ x
        t = adjoint_sweep(self.forest, self.cells, x)
        y = np.concatenate([2.0 * t.real, -2.0 * t.imag])
        s = self.own.shape[1]
        y.reshape(2, -1)[:, :s] -= self.own @ x[:s]
        return y


class MultilevelEngine:
    """Exact inside each innermost scope, aggregated across the scopes above.

    Depth 1 splits the feeder into its areas (the bi-level engine); depth 2
    splits every area again into its subareas (the tri-level engine).
    """

    def __init__(
        self, net: Network, part: PartitionHierarchy, depth: int, record: FlowRecord | None = None
    ):
        if depth not in (1, 2):
            raise EngineError(f"multilevel depth must be 1 or 2, got {depth!r}")
        problems = validate_partition(net, part)
        if problems:
            raise EngineError("invalid partition: " + "; ".join(problems[:3]))
        self.name = "bilevel" if depth == 1 else "trilevel"
        self.net = net
        self.part = part
        self.n = net.n_flat
        self.record = record
        self._scopes: list[_Scope] = []  # post-order: children before parents

        def scope(key, root, children):
            s = _Scope(net, key, root, children, len(self._scopes))
            self._scopes.append(s)
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
        self._tree = scope(("unclustered",), None, areas)
        self.op_count_per_apply = self._tree.ops
        # With the scopes' products laid end to end as y, g_p and g_q are the
        # sums of y[_take] at _out and at _out - n: each product holds a
        # scope's R rows, then its X rows.
        start = np.cumsum([0] + [2 * len(s.gather) for s in self._scopes])
        self._take = np.concatenate([
            first + np.concatenate([s.take, len(s.gather) + s.take])
            for first, s in zip(start, self._scopes)
        ])
        self._out = np.concatenate([np.concatenate([s.out, self.n + s.out]) for s in self._scopes])
        # A child scope's aggregate row sums its members' duals by phase: one
        # bincount over (flat index, slot) pairs. The feeder scope, last in
        # post-order, is no child.
        below, none = self._scopes[:-1], np.zeros(0, dtype=np.int64)
        self._members = np.concatenate([none] + [s.idx for s in below])
        self._slots = np.concatenate([none] + [3 * s.pos + net.flat_phase[s.idx] for s in below])
        # Every child scope sends its aggregate to its parent, in post-order.
        self._senders = [(ch.key, ch.root, ch.pos) for s in self._scopes for ch in s.children]
        if record is not None:
            record.engine = self.name
            self._record_flows(self._tree)

    def _record_flows(self, scope):
        """Record what scope and its descendants read, from the kernels' index arrays."""
        rec = self.record
        top = scope is self._tree
        rem_ids = [self.net.buses[k].id for k in self.net.flat_bus_pos[scope.rem]]
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

    def compute(self, mu_upper: np.ndarray, mu_lower: np.ndarray) -> CouplingResult:
        d = _check_duals(mu_upper, mu_lower, self.n)
        agg = np.bincount(self._slots, weights=d[self._members], minlength=3 * len(self._scopes))
        x = np.concatenate([d, agg])
        y = np.concatenate([s.product(x) for s in self._scopes])[self._take]
        g = np.bincount(self._out, weights=y, minlength=2 * self.n).reshape(2, self.n)
        if self.record is not None:
            self.record.apply()
        return CouplingResult(g, self.op_count_per_apply, partial(self._messages, agg))

    def _messages(self, agg: np.ndarray) -> tuple[AggregateMessage, ...]:
        """The aggregate each child scope sends its parent, from compute's aggregates."""
        sums = agg.reshape(-1, 3).tolist()
        return tuple(
            AggregateMessage(scope=key, root=root, sums=tuple(sums[k]))
            for key, root, k in self._senders
        )


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
    if kind == "flat":
        if sens is None:
            raise EngineError("flat engine needs sensitivity matrices")
        return FlatEngine(sens, record=record)
    depth = {"bilevel": 1, "trilevel": 2}.get(kind)
    if depth is None:
        raise EngineError(f"unknown engine {kind!r}")
    if net is None or part is None:
        raise EngineError(f"{kind} engine needs a network and partition")
    return MultilevelEngine(net, part, depth, record=record)


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
    """Check a flow record against one table of per-scope read rules.

    Each scope, ("unclustered",), every area and every subarea, may read
    its own per-bus duals ("members") and impedances between its own buses
    ("intra"). An area may read the unclustered duals and a subarea its
    area's remainder ("exterior"); the unclustered scope reads no exterior
    duals. "root_root" pairs sibling roots: all area roots, or one area's
    subarea roots. "exterior_root" pairs those roots with the exterior
    buses, which for an area include its own members (its remainder to
    subarea root coefficients live there) and for the unclustered scope
    are its own buses. Any other item is a violation, and so is an event
    from a scope the partition lacks or of an unknown kind. Aggregate
    exchanges never are: they are the mechanism that keeps everything
    else inside its scope. A partition that fails validate_partition has
    no scopes to check against: its problems are the report's violations.
    """
    global_access = any(isinstance(ev, GlobalAccess) for ev in record.events)
    if problems := validate_partition(net, part):
        return PrivacyReport(record.engine, global_access, problems, events_checked=0)
    allowed = _audit_rules(net, part)
    violations: list[str] = []
    for ev in record.events:
        if isinstance(ev, (GlobalAccess, AggregateExchange)):
            continue
        if isinstance(ev, DualRead):
            what, kind, items = "dual read", ev.basis, set(ev.indices)
        elif isinstance(ev, ZAccess):
            what, kind = "impedance access", ev.kind
            items = set(ev.row_buses) | set(ev.col_buses)
        else:
            violations.append(f"unknown event {ev!r}")
            continue
        text = _LEAK_TEXT[what].get(kind)
        rules = allowed.get(ev.scope)
        if text is None:
            violations.append(f"unknown {what} kind {kind!r}")
        elif rules is None:
            violations.append(f"{what} from unknown scope {ev.scope}")
        elif leak := items - rules[kind]:
            violations.append(f"scope {ev.scope} {text} {sorted(leak)[:5]}")
    return PrivacyReport(
        engine=record.engine,
        global_access=global_access,
        violations=violations,
        events_checked=len(record.events),
    )
