"""Partitions, Frobenius coordinates and marked circle diagrams.

Run with:  python3 demos/01_partitions_and_diagrams.py
"""

from nilquiver import (
    DimensionVector,
    Partition,
    bounded_circle_diagrams,
    frobenius_diagram_of_partition,
    to_ascii,
)

lam = Partition([7, 5, 3, 2, 1])
print(f"partition      {lam}")
print(f"transpose      {lam.transpose()}")

f = lam.frobenius()
print(f"legs           {f.legs}")
print(f"arms           {f.arms}")
print(f"hook sizes     {f.hook_sizes()}")
print(f"roundtrip      {f.partition()}")
print()

# the weight counts boxes of content divisible by ell in the first hook
for ell in (1, 2, 3, 4):
    print(f"weight at ell={ell}: {lam.weight(ell)}")
print()

# each hook becomes a chain marked in block 0; the mark offset is the arm
ell = 3
diagram = frobenius_diagram_of_partition(lam, ell)
print(f"marked circle diagram of {lam} at ell={ell}:")
print(to_ascii(diagram))
print(f"diagram weight: {diagram.weight()} (= partition weight {lam.weight(ell)})")
print(f"back to the partition: {diagram.partition()}")
print()

# unmarked diagrams with a given dimension vector are tilings by circles;
# bounding each circle to one pass through block 0 keeps those of an
# algebra whose cycle has nilpotency degree x = 1
d = DimensionVector(0, (2, 1, 1))
print(f"unmarked diagrams of {d} at ell={ell}: {len(bounded_circle_diagrams(ell, d))}")
bounded = bounded_circle_diagrams(ell, d, max_zero_hits=1)
print(f"those whose circles pass block 0 at most once: {len(bounded)}")
for tiling in bounded:
    print(f"  {tiling}")
