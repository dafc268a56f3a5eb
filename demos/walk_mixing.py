"""Random walks on a class-group expander hit target sets at the right rate.

Builds the Cayley graph of Cl(-8011) on prime forms below 20, picks a small
set W of classes, computes the walk length the spectral gap demands, and
runs 20000 seeded walks.  The landing frequency should sit inside the band
[|W|/2h, 3|W|/2h]; the report also carries the exact matrix-power value.

Run:  python3 demos/walk_mixing.py [seed]
"""

import json
import sys

from isocayley import abelian, cayley, quadform, walks

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7

cls = quadform.class_group(-8011)
sub = abelian.full_subgroup(cls.group)
gens = quadform.generating_multiset(cls, 20, sub)
graph = cayley.build(sub, [(g.label, g.element) for g in gens])
_, delta2, c = cayley.expansion(cayley.spectrum_by_characters(graph))
print(f"graph: h = {graph.order}, degree {graph.degree}, "
      f"two-sided delta_2 = {delta2:.3f}")

# W: the principal class plus the classes above the smallest split prime
ell0 = min(g.ell for g in gens)
target = tuple(sorted({g.element for g in gens if g.ell == ell0}
                      | {cls.group.identity}, key=lambda e: e.coords))
print(f"W = principal class + classes above {ell0}")
length = walks.mixing_length(graph, len(target))
print(f"|W| = {len(target)}, walk length from the measured gap: {length} "
      f"(headline length without the gap factor: "
      f"{walks.theorem_length(graph, len(target))})")

cfg = walks.WalkConfig(length=length, trials=20000, seed=seed, target=target)
result = walks.mixing_experiment(graph, graph.vertices[0], cfg)

names = [":".join(map(str, cls.class_of(v))) for v in target]
print()
print(json.dumps(walks.report_json(result, target_names=names), indent=2, sort_keys=True))
print(f"verdict: {result.verdict} "
      f"(frequency {result.frequency:.4f}, band {result.band[0]:.4f}"
      f"..{result.band[1]:.4f}, exact {result.exact:.4f})")
