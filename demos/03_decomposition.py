"""Building representations and decomposing them back, exactly.

A representation of the framed cyclic quiver is a matrix per arrow plus a
framing vector.  Decomposition reads the chain summands of M and of the
quotient M/<v> (v the framing vector) from ranks of path composites; the
quotient glues the head of each hook chain of the framed summand to the
tail of the next, so the label follows in closed form and is certified by
recomputing both chain lists from it.  Everything runs over exact
rationals, so the recovered label is certain, not approximate.

Run with:  python3 demos/03_decomposition.py
"""

import random

from nilquiver import (
    Multipartition,
    OrbitLabel,
    Partition,
    build_chain,
    build_framed,
    build_label_rep,
    conjugate,
    decompose_enhanced,
    direct_sum,
    isomorphic,
    random_base_change,
)
from nilquiver.linalg import RationalMatrix

# assemble a representation summand by summand
rep = direct_sum(build_framed(Partition([4, 2]), 1), build_chain(0, 3, 1))
print("dims:", rep.dims)
out = decompose_enhanced(rep)
print("decomposition:", out)
print()

# the label survives an invertible change of basis at every vertex
label = OrbitLabel(
    Partition([2, 1]),
    Multipartition((Partition([2]), Partition([1, 1]), Partition())),
)
rep = build_label_rep(label)
rng = random.Random(1)
moved = random_base_change(rep, rng)
print("original label:   ", label)
print("after base change:", decompose_enhanced(moved).label())
print("same orbit:       ", isomorphic(rep, moved))
print()

# the orbit is the GL(V) action: a base change g_i at every vertex sends
# each arrow M_i to g_{i+1} M_i g_i^-1 and v to g_0 v; here a shear at
# vertex 0 (dimension 2) and the identity elsewhere
g = [RationalMatrix(((1, 1), (0, 1)), 2)] + [RationalMatrix.identity(d) for d in rep.dims.main[1:]]
sheared = conjugate(rep, g)
print("after a shear at vertex 0:", decompose_enhanced(sheared).label())
print("same orbit:               ", isomorphic(rep, sheared))

# a label of the same dimension vector names a different orbit
other = build_label_rep(
    OrbitLabel(
        Partition([2, 1]),
        Multipartition((Partition([1]), Partition([1, 1, 1]), Partition())),
    )
)
print(f"dims {rep.dims} and {other.dims}, same orbit:", isomorphic(rep, other))
print()

# the arrow matrices of the conjugated representation are dense rationals
print("one conjugated arrow matrix:")
for row in moved.maps[0].rows:
    print("  ", [str(x) for x in row])
