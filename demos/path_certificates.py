"""Find short paths between classes and check the certificates.

On the degree-12 Cayley graph of Cl(-99551) (h = 387) the two-step search
finds a path between random classes using ~sqrt(h) trials; the certificate
is a label sequence anyone can replay without rerunning the search.  A
tampered certificate must fail the replay.

Run:  python3 demos/path_certificates.py
"""

import dataclasses
import json
import math

from isocayley import abelian, cayley, pathfind, quadform

cls = quadform.class_group(-99551)
sub = abelian.full_subgroup(cls.group)
gens = quadform.generating_multiset(cls, 20, sub)
names = cayley.spell_rows(cls.triples[sub.codes])
graph = cayley.build(sub, [(g.label, g.element) for g in gens], names)
h = graph.order
print(f"h = {h}, degree {graph.degree}, "
      f"length cap 2*ceil(ln 2h) = {2 * math.ceil(math.log(2 * h))}")

a, b = graph.vertices[10], graph.vertices[250]
cert, stats = pathfind.find_path(graph, a, b, seed=5)
print(f"step-1 trials {stats.step1_trials}, step-2 trials {stats.step2_trials}, "
      f"distinct neighbors collected {stats.distinct_neighbors}")
print(f"path length {cert.length}:")
for s in cert.steps:
    print(f"  {s.label}{'^-1' if s.inverted else ''}")

print()
print("certificate JSON:")
print(json.dumps(pathfind.certificate_to_json(cert, graph), indent=2, sort_keys=True))

ok = pathfind.replay(graph, cert)
print(f"replay: {'valid' if ok else 'INVALID'}")

# flip one inversion flag: the walk must land somewhere else
bad_steps = list(cert.steps)
bad_steps[0] = bad_steps[0].flipped()
bad = dataclasses.replace(cert, steps=tuple(bad_steps))
print(f"replay with a flipped flag: "
      f"{'valid' if pathfind.replay(graph, bad) else 'INVALID'}")
