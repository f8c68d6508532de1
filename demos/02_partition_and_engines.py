"""Three ways to compute the same coupling term.

Partitions a feeder into subtree areas and subareas, each kept as its
root alone (a scope's buses are its root's subtree), then evaluates the
dual-weighted sensitivity sums with the flat engine and the multilevel
engine at depth 1 (bi-level: areas) and depth 2 (tri-level: areas split
again into subareas). The results agree to machine precision while the
operation counts fall sharply, and the aggregate messages show what
actually crosses an area boundary.
"""

import numpy as np

from mlopf import (
    FeederSpec,
    FlatEngine,
    MultilevelEngine,
    build_sensitivity,
    generate,
    subtree_ids,
    unclustered,
    validate_partition,
)

feeder = generate(
    FeederSpec(n_buses=150, seed=1), target_area_size=40, target_subarea_size=12
)
net, part = feeder.net, feeder.partition
assert validate_partition(net, part) == []
print(f"feeder: {net.n_flat} indices; {part.n_areas} areas, "
      f"{len(unclustered(net, part))} unclustered buses")
for area in part.areas:
    subs = ", ".join(
        f"{len(subtree_ids(net, s.root))}@{s.root}" for s in area.subareas
    ) or "-"
    print(f"  area {area.index}: root {area.root}, "
          f"{len(subtree_ids(net, area.root))} buses, "
          f"subareas [{subs}]")

sens = build_sensitivity(net)
rng = np.random.default_rng(0)
mu_up = rng.uniform(0, 1, net.n_flat)
mu_lo = rng.uniform(0, 1, net.n_flat)

results = {
    "flat": FlatEngine(sens).compute(mu_up, mu_lo),
    "bilevel": MultilevelEngine(net, part, depth=1).compute(mu_up, mu_lo),
    "trilevel": MultilevelEngine(net, part, depth=2).compute(mu_up, mu_lo),
}

ref = results["flat"]
print(f"\n{'engine':>9}  {'ops':>10}  {'max |g_p - flat|':>18}")
for name, res in results.items():
    gap = np.max(np.abs(res.g_p - ref.g_p))
    print(f"{name:>9}  {res.op_count:>10}  {gap:>18.2e}")

msgs = results["bilevel"].messages
print(f"\nwhat leaves an area in the bi-level run: {len(msgs)} aggregate messages")
m = msgs[0]
print(f"  e.g. scope {m.scope}, root bus {m.root}, per-phase dual sums "
      f"({m.sums[0]:.4f}, {m.sums[1]:.4f}, {m.sums[2]:.4f})")
print("  no per-bus dual and no interior line impedance appears anywhere.")
