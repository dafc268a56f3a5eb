"""Tour of a small imaginary class group.

Builds Cl(-47), lists its reduced forms, composes a couple of them, shows
the invariant-factor decomposition and character table, and ends with the
JSON export the CLI would emit.

Run:  python3 demos/class_group_tour.py
"""

import cmath
import json
from math import pi

from isocayley import abelian, quadform

D = -47

cls = quadform.class_group(D)
print(f"discriminant {D}: fundamental={cls.discriminant.fundamental}, "
      f"conductor={cls.discriminant.conductor}")
print(f"class number h = {cls.order}, invariants {list(cls.group.invariants)}")
print()

print("reduced forms and their abstract coordinates:")
for cl in cls.classes:
    a, b, c = cl
    print(f"  ({a:2d},{b:3d},{c:2d})  ->  {cls.element_of(cl).coords}")
print()

# composition: square the first non-principal class and reduce
g = next(cl for cl in cls.classes if any(cls.element_of(cl).coords))
sq = abelian.op_mul(cls.element_of(g), cls.element_of(g))
print(f"square of {g} has coordinates {sq.coords}, "
      f"i.e. the class of {cls.class_of(sq)}")
print()

sub = abelian.full_subgroup(cls.group)
print("character table (rows chi, columns the classes above, real parts):")
# column j holds every character's angle at class j, in units of 1/e of a
# turn; stacked side by side they give row i = the angles of chi_i
e, columns = abelian.character_angles(sub, [cls.element_of(cl) for cl in cls.classes])
for angles in zip(*(column.tolist() for column in columns)):
    row = " ".join(f"{cmath.exp(2j * pi * (a / e)).real:6.3f}" for a in angles)
    print(f"  {row}")
print()

print("JSON export:")
print(json.dumps(cls.to_json(), indent=2, sort_keys=True))
