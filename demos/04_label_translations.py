"""Translating between the three orbit labellings.

One-vertex orbits carry a normal-form bipartition (mu; nu): the Jordan
matrix has type mu + nu and row i is marked in column mu_i.  It is the
striped bipartition of ell = 1 with markings mu, and deleting its
removable rows translates it into the canonical label.  The cyclic case
starts from a striped bipartition (coloured rows plus a marking function)
and deletes rows by the same rule.  Both inverses are built from the
label's circle diagrams.  ``build_framed_jordan`` builds the normal form
of a bipartition as a marked nilpotent matrix, and ``framed_jordan_type``
reads the bipartition back off the matrix by linear algebra.

Run with:  python3 demos/04_label_translations.py
"""

from nilquiver import (
    Partition,
    StripedBipartition,
    bipartition_as_striped,
    bipartition_to_label,
    build_framed_jordan,
    framed_jordan_type,
    label_to_bipartition,
    removable_rows_cyclic,
    striped_from_label,
    striped_label,
    striped_to_diagrams,
)

mu, nu = Partition([4, 4, 3, 1]), Partition([3, 2, 2])
print(f"bipartition ({mu};{nu})")
print(f"removable rows: {sorted(removable_rows_cyclic(bipartition_as_striped(mu, nu)))}")
eta, zeta = bipartition_to_label(mu, nu)
print(f"canonical label: ({eta};{zeta})")
print(f"inverse: {label_to_bipartition(eta, zeta)}")
rep = build_framed_jordan(mu, nu)
print(f"read back off the normal form: {framed_jordan_type(rep.framing_vector, rep.maps[0])}")
print()

s = StripedBipartition(
    4,
    Partition([16, 14, 13, 11, 9, 6, 5, 5, 2]),
    (0, 2, 0, 1, 3, 0, 2, 2, 0),
    (8, 4, 5, 4, 0, 2, 3, 3, -2),
)
print(f"striped rows (length, colour, marked column): {s.rows()}")
print(f"removable rows: {sorted(removable_rows_cyclic(s))}")
frob, circ = striped_to_diagrams(s)
print(f"surviving marked circles (length, mark offset): {frob.circles}")
print(f"removed plain circles (start, length): {circ.circles}")
label = striped_label(s)
print(f"canonical label: {label}")
inverse = striped_from_label(label)
print(f"inverse rows: {inverse.rows()} (equal to the input: {inverse == s})")
