"""The dense ``Fraction`` product, matvec and inverse routes, kept as test
oracles.

``RationalMatrix.__matmul__`` and ``RationalMatrix.inverse`` run in integer
arithmetic on rows cleared of their denominators, and ``rep_builder``'s
base changes form each arrow as one integer triple product on the same
kernel; ``RationalMatrix.apply`` and the decomposer's matrix-vector
products sum only the nonzero terms of each row (``linalg._matvec``).
This module keeps the routes they replaced: the dense product and the
dense matvec that sum every ``Fraction`` pair, zeros included, and the
inverse read off the ``Fraction`` reduced row echelon form of [g | I].
``conjugate`` is the base change of ``rep_builder.conjugate`` built from
these, as two ``Fraction`` products per arrow and one dense matvec.
``from_columns`` builds a matrix from its columns for the oracles that
rank or complete a set of vectors, and ``transpose`` gives the columns
``dense_product`` sums over.  ``random_invertible`` is
the draw ``random_base_change`` makes at one vertex, and
``rank_tested_invertible`` draws as it did before each draw was tested by
its inverse: a singular draw is found by its rank.
"""

from __future__ import annotations

from nilquiver.linalg import RationalMatrix
from nilquiver.rep_builder import QuiverRep, _invertible_draw


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
    pivots, m = hstack(g, RationalMatrix.identity(n)).rref()
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
    rank is below n."""
    if n == 0:
        return RationalMatrix.zero(0, 0)
    while True:
        m = RationalMatrix(tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)), n)
        if m.rank() == n:
            return m


def random_invertible(n: int, rng) -> RationalMatrix:
    """The matrix ``random_base_change`` draws at a vertex of dimension n."""
    return RationalMatrix(_invertible_draw(n, rng)[0], n)
