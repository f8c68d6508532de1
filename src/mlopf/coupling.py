"""Dual-weighted sensitivity sums by a flat and a multilevel engine.

The primal gradient of the voltage-regulation Lagrangian needs, at every
flat index (i, phi),

    g_p(i, phi) = sum over (j, psi) of dv(j,psi)/dp(i,phi) * (mu_up - mu_lo)(j, psi)
    g_q(i, phi) = likewise with dv/dq,

which is R^T d and X^T d for d = mu_upper - mu_lower. The flat engine
computes exactly that with dense products. The multilevel engine walks a
tree of subtree scopes: the feeder, its areas and, at depth 2, each area's
subareas. A scope's remainder is its members outside every child scope.
Every scope, leaf or not, runs one kernel: one complex block times
[child aggregates; remainder duals]. The block's rows and columns are the
three phase slots of each child root, then the remainder. Pairs across two
children collapse to one root-to-root impedance times the other child's
per-phase dual aggregate, a remainder bus meets a child only through the
child's root, and pairs inside the remainder are exact. A scope's own
aggregate is its children's aggregates plus its remainder's per-phase
sums, so the split repeats at every level: depth 1 is the bi-level engine
and depth 2 the tri-level one. The engines are algebraically equal; the
multilevel one replaces almost all of the N^2 pairwise work with
aggregate exchanges, which is also what keeps per-bus duals and interior
topology inside their scope.

Operation counts follow a declared cost model (complex multiply-accumulate,
rotation, and real/imaginary extraction each count one; the flat engine
counts 2 N^2 real multiply-adds per output vector), so measured complexity
is reproducible across machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network
from .partition import PartitionHierarchy, validate_partition
from .sensitivity import OMEGA_PAIR, SensitivityMatrices


class EngineError(ValueError):
    """Invalid partition or mismatched dimensions for a coupling engine."""


@dataclass
class CouplingResult:
    g_p: np.ndarray
    g_q: np.ndarray
    op_count: int
    messages: tuple["AggregateMessage", ...] = ()


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


def _level_op_count(intra_ops: list[int], cluster_sizes: list[int], rem: int) -> int:
    """Declared per-apply cost of one scope: its child clusters and remainder.

    Exact pairwise blocks cost size^2 accumulates plus 5 per target (three
    rotations, two extractions). Each cluster then pays the root-to-root
    combine against the other clusters, the per-bus sums over the exterior
    set, and one add per member and output vector to broadcast the shared
    value. Exterior targets mirror the same structure.
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


class FlatEngine:
    """Direct dense products R^T d and X^T d."""

    name = "flat"

    def __init__(self, sens: SensitivityMatrices, record: FlowRecord | None = None):
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
        g_p = self.sens.r.T @ d
        g_q = self.sens.x.T @ d
        if self.record is not None:
            self.record.apply()
        return CouplingResult(g_p=g_p, g_q=g_q, op_count=self.op_count_per_apply)


def _check_duals(mu_upper, mu_lower, n) -> np.ndarray:
    mu_upper = np.asarray(mu_upper, dtype=np.float64)
    mu_lower = np.asarray(mu_lower, dtype=np.float64)
    if mu_upper.shape != (n,) or mu_lower.shape != (n,):
        raise EngineError(f"dual vectors must have shape ({n},)")
    return mu_upper - mu_lower


class _Scope:
    """One node of the scope tree and the one block its kernel reads.

    The remainder is every member outside all child scopes; a scope without
    children is a leaf, whose remainder is all of it. The block's rows and
    columns are the three phase slots of each child root followed by the
    remainder's flat indices, so its quadrants are

        [ root-to-root       root-to-remainder ]
        [ remainder-to-root  remainder exact   ]

    and one product of it with [child aggregates; remainder duals] is the
    scope's whole share of t. Each child's own 3x3 diagonal is zero, since
    pairs inside a child are the child's work. gather picks the operand
    out of [d; aggregate rows], and t[out] adds the product's rows at take:
    a slot row to every member of its child with that phase, a remainder
    row to its own flat index.
    """

    def __init__(self, net, w, key, root, member_ids, children, pos):
        self.key = key
        self.root = root
        self.children = children
        self.pos = pos
        self.idx = _flat_indices(net, member_ids)
        in_child = np.zeros(net.n_flat, dtype=bool)
        for ch in children:
            in_child[ch.idx] = True
        self.rem = self.idx[~in_child[self.idx]]
        self.rem_phase = net.flat_phase[self.rem]
        c = len(children)
        slots = 3 * np.array([ch.pos for ch in children], dtype=np.int64)[:, None] + np.arange(3)
        self.gather = np.concatenate([net.n_flat + slots.ravel(), self.rem])
        self.out = np.concatenate([ch.idx for ch in children] + [self.rem])
        self.take = np.concatenate(
            [3 * k + net.flat_phase[ch.idx] for k, ch in enumerate(children)]
            + [3 * c + np.arange(len(self.rem))]
        )
        # A child root meets every bus outside its subtree where its parent
        # does, so one table over the roots' parents and the remainder
        # holds the whole block.
        root_pos = np.array([net.bus_pos(ch.root) for ch in children], dtype=np.int64)
        rows, table = net.lca_table(
            np.concatenate([net.parent_pos[root_pos], net.flat_bus_pos[self.rem]])
        )
        rows = np.concatenate([np.repeat(rows[:c], 3), rows[c:]])
        phase = np.concatenate([np.tile(np.arange(3, dtype=np.int64), c), self.rem_phase])
        table *= 9
        at = table[np.ix_(rows, rows)]
        at += 3 * phase + phase[:, None]
        self.block = np.take(w, at)
        for k in range(c):
            self.block[3 * k: 3 * k + 3, 3 * k: 3 * k + 3] = 0.0
        self.ops = _level_op_count(
            [ch.ops for ch in children], [len(ch.idx) for ch in children], len(self.rem)
        )


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
        # conj(Z^(psi,phi)) omega^(psi-phi) of bus position b at 9 b + 3 psi + phi,
        # so a block entry [(i,phi),(j,psi)] is a gather at lca(i, j).
        w = (np.conj(net.z_prefix) * OMEGA_PAIR).ravel()

        def scope(key, root, member_ids, children):
            s = _Scope(net, w, key, root, member_ids, children, len(self._scopes))
            self._scopes.append(s)
            return s

        areas = [
            scope(("area", a.index), a.root, a.members, [
                scope(("subarea", a.index, s.index), s.root, s.members, [])
                for s in sorted(a.subareas, key=lambda s: s.index) if depth == 2
            ])
            for a in sorted(part.areas, key=lambda a: a.index)
        ]
        # The feeder's remainder is the public unclustered set, so its own
        # work runs in that scope.
        self._tree = scope(("unclustered",), None, [b.id for b in net.buses if b.id != 0], areas)
        self.op_count_per_apply = self._tree.ops
        # With the scopes' block products laid end to end as y, t is the
        # sum of y[_take] at _out.
        start = np.cumsum([0] + [len(s.block) for s in self._scopes])
        self._take = np.concatenate([first + s.take for first, s in zip(start, self._scopes)])
        self._out = np.concatenate([s.out for s in self._scopes])
        # Every flat index is in one scope's remainder: its aggregate slot.
        self._slot = np.empty(self.n, dtype=np.int64)
        for s in self._scopes:
            self._slot[s.rem] = 3 * s.pos + s.rem_phase
        # Aggregates are summed one tree level at a time, deepest first. A
        # level's child rows are padded with the zero row after the last scope's.
        self._levels, level = [], [self._tree]
        while any(s.children for s in level):
            rows = np.full((len(level), max(len(s.children) for s in level)), len(self._scopes))
            for i, s in enumerate(level):
                rows[i, : len(s.children)] = [ch.pos for ch in s.children]
            self._levels.insert(0, (np.array([s.pos for s in level]), rows))
            level = [ch for s in level for ch in s.children]
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
        # Row k starts as scope k's remainder sums; each level then adds the
        # rows of its children, which are final, summed in order.
        agg = np.bincount(self._slot, weights=d, minlength=3 * len(self._scopes) + 3)
        agg = agg.reshape(-1, 3)
        for pos, rows in self._levels:
            agg[pos] += agg[rows].sum(axis=1)
        x = np.concatenate([d, agg.ravel()])
        y = np.concatenate([s.block @ x[s.gather] for s in self._scopes])[self._take]
        sums = agg.tolist()
        messages = tuple(
            AggregateMessage(scope=key, root=root, sums=tuple(sums[k]))
            for key, root, k in self._senders
        )
        if self.record is not None:
            self.record.apply()
        return CouplingResult(
            g_p=2.0 * np.bincount(self._out, weights=y.real, minlength=self.n),
            g_q=-2.0 * np.bincount(self._out, weights=y.imag, minlength=self.n),
            op_count=self.op_count_per_apply,
            messages=messages,
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

    unclustered = part.unclustered
    unclustered_idx = frozenset(map(int, _flat_indices(net, unclustered)))
    area_roots = frozenset(a.root for a in part.areas)
    allowed = {("unclustered",): rules(unclustered, unclustered, frozenset(), area_roots)}
    for a in part.areas:
        allowed[("area", a.index)] = rules(
            a.members, unclustered | a.members, unclustered_idx, area_roots
        )
        remainder_idx = frozenset(map(int, _flat_indices(net, a.remainder)))
        sub_roots = frozenset(s.root for s in a.subareas)
        for s in a.subareas:
            allowed[("subarea", a.index, s.index)] = rules(
                s.members, a.remainder, remainder_idx, sub_roots
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
    else inside its scope.
    """
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
        global_access=any(isinstance(ev, GlobalAccess) for ev in record.events),
        violations=violations,
        events_checked=len(record.events),
    )
