"""The ``Fraction`` echelon form and the dense ``Fraction`` product, matvec
and inverse routes, kept as test oracles.

``linalg`` runs every rank, echelon form and inverse through one
fraction-free integer elimination (``linalg._eliminate``), and products
through one integer kernel; ``rep_builder``'s base changes form each arrow
as one integer triple product on that kernel; ``RationalMatrix.apply`` and
the decomposer's matrix-vector products sum only the nonzero terms of each
row (``linalg._matvec``).  This module keeps the routes they replaced:
``fraction_rref``, the ``Fraction`` Gauss-Jordan reduction that
``RationalMatrix.rref`` ran before it read the echelon form off the integer
elimination, with ``fraction_nullspace`` read off it; the dense product and
the dense matvec that sum every ``Fraction`` pair, zeros included; and the
inverse read off the ``Fraction`` reduced row echelon form of [g | I].
Every oracle that needs an echelon form or a kernel independent of
``linalg`` reads these.  ``conjugate`` is the base change of
``rep_builder.conjugate`` built from these, as two ``Fraction`` products
per arrow and one dense matvec.  ``from_columns`` builds a matrix from its
columns for the oracles that rank or complete a set of vectors, and
``transpose`` gives the columns ``dense_product`` sums over.
``random_invertible`` is the draw ``random_base_change`` makes at one
vertex, and ``rank_tested_invertible`` draws as it did before each draw
was tested by its inverse: a singular draw is found by its
``fraction_rref`` rank.
"""

from __future__ import annotations

from fractions import Fraction

from nilquiver.linalg import RationalMatrix
from nilquiver.rep_builder import QuiverRep, _invertible_draw


def fraction_rref(rows, ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Reduced row echelon form of the rows by ``Fraction`` Gauss-Jordan
    elimination; returns (pivot columns, reduced rows)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / Fraction(m[r][c])
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots, m


def fraction_nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """A basis of the right kernel of the rows, read off ``fraction_rref``:
    one tuple per free column."""
    pivots, m = fraction_rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(tuple(vec))
    return basis


def hstack(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """[a | b]: the rows of a and b side by side."""
    return RationalMatrix(tuple(ra + rb for ra, rb in zip(a.rows, b.rows)), a.ncols + b.ncols)


def from_columns(cols: list[tuple], nrows: int) -> RationalMatrix:
    """Matrix whose columns are the given vectors (each of length nrows)."""
    if not cols:
        return RationalMatrix.zero(nrows, 0)
    return RationalMatrix(tuple(zip(*cols)), len(cols))


def transpose(m: RationalMatrix) -> RationalMatrix:
    """The transpose of m, shapes with no rows or no columns included."""
    return RationalMatrix(tuple(zip(*m.rows)) if m.nrows else ((),) * m.ncols, m.nrows)


def dense_apply(m: RationalMatrix, vec: tuple) -> tuple:
    """m times a column vector as a sum of Fraction products over every
    pair of entries."""
    if len(vec) != m.ncols:
        raise ValueError("vector length mismatch")
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in m.rows)


def dense_product(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """a @ b as a sum of Fraction products over every pair of entries."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in product")
    cols = transpose(b).rows
    return RationalMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.rows),
        b.ncols,
    )


def rref_inverse(g: RationalMatrix) -> RationalMatrix:
    """g^-1 from the Fraction reduced row echelon form of [g | I]."""
    if g.nrows != g.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = g.nrows
    if n == 0:
        return RationalMatrix((), 0)
    pivots, m = fraction_rref(hstack(g, RationalMatrix.identity(n)).rows, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return RationalMatrix(tuple(tuple(row[n:]) for row in m), n)


def conjugate(rep: QuiverRep, transforms: list[RationalMatrix]) -> QuiverRep:
    """g_{i+1} M_i g_i^-1 at every arrow and g_0 v, through the oracles."""
    inverses = [rref_inverse(g) for g in transforms]
    maps = tuple(
        dense_product(dense_product(transforms[(i + 1) % rep.ell], rep.maps[i]), inverses[i])
        for i in range(rep.ell)
    )
    fv = dense_apply(transforms[0], rep.framing_vector) if rep.framed else ()
    return QuiverRep(rep.ell, rep.dims, maps, fv)


def rank_tested_invertible(n: int, rng) -> RationalMatrix:
    """A random invertible matrix with entries in [-2, 2], redrawn while its
    ``fraction_rref`` rank is below n."""
    if n == 0:
        return RationalMatrix.zero(0, 0)
    while True:
        m = RationalMatrix(tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)), n)
        if len(fraction_rref(m.rows, n)[0]) == n:
            return m


def random_invertible(n: int, rng) -> RationalMatrix:
    """The matrix ``random_base_change`` draws at a vertex of dimension n."""
    return RationalMatrix(_invertible_draw(n, rng)[0], n)
