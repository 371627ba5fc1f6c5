"""The centralizer route to the marked-Jordan invariant, kept as a test oracle.

``decomposer.framed_jordan_type`` reads the Achar-Henderson bipartition of
a vector v and a nilpotent matrix x off ``decompose_enhanced`` and
``label_to_bipartition``.  This module keeps the independent route it
replaced: mu is the Jordan type of x on the span Z(x)v of v under the
centralizer of x, and nu the type of the induced map on the quotient, each
read from the ranks of powers, with the centralizer as a ``Fraction``
nullspace and the quotient from a reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction

from linalg_oracle import from_columns

from nilquiver import Bipartition, Partition
from nilquiver.linalg import RationalMatrix


def jordan_type(x: RationalMatrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix, largest first.

    Column j of the transpose counts rank(x^(j-1)) - rank(x^j); a matrix
    whose n-th power fails to vanish is rejected.
    """
    if x.nrows != x.ncols:
        raise ValueError("jordan type of a non-square matrix")
    n = x.nrows
    ranks = [n]
    power = RationalMatrix.identity(n)
    while ranks[-1] > 0:
        power = x @ power
        ranks.append(power.rank())
        if len(ranks) > n + 1:
            raise ValueError(f"matrix is not nilpotent: rank of the {n}-th power is positive")
    cols = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    return Partition(cols).transpose()


def centralizer_basis(x: RationalMatrix) -> list[RationalMatrix]:
    """A basis of the matrices commuting with x."""
    if x.nrows != x.ncols:
        raise ValueError("centralizer of a non-square matrix")
    n = x.nrows
    if n == 0:
        return []
    rows = []
    for r in range(n):
        for c in range(n):
            coeff = [Fraction(0)] * (n * n)
            # (x @ m - m @ x)[r][c] = sum_s x[r][s] m[s][c] - m[r][s] x[s][c]
            for s in range(n):
                coeff[s * n + c] += x.entry(r, s)
                coeff[r * n + s] -= x.entry(s, c)
            rows.append(tuple(coeff))
    basis = RationalMatrix(tuple(rows), n * n).nullspace()
    return [
        RationalMatrix(tuple(tuple(vec[r * n + c] for c in range(n)) for r in range(n)), n)
        for vec in basis
    ]


def _split_by_subspace(x: RationalMatrix, spanning: list[tuple]) -> tuple[RationalMatrix, RationalMatrix]:
    """Restriction of x to the span and the induced map on the quotient.

    The span must be x-stable; its reduced basis is completed to a basis of
    the ambient space by standard vectors, and x is rewritten in that basis.
    """
    n = x.nrows
    if not spanning:
        return RationalMatrix((), 0), x
    pivots, reduced = RationalMatrix(tuple(spanning), n).rref()
    basis = [tuple(reduced[r]) for r in range(len(pivots))]
    r = len(basis)
    pivot_set = set(pivots)
    completion = []
    for c in range(n):
        if c not in pivot_set:
            vec = [Fraction(0)] * n
            vec[c] = Fraction(1)
            completion.append(tuple(vec))
    u = from_columns(basis + completion, n)
    xp = u.inverse() @ x @ u
    lower_left = [xp.entry(i, j) for i in range(r, n) for j in range(r)]
    if any(e != 0 for e in lower_left):
        raise ValueError("subspace is not stable under the matrix")
    top = RationalMatrix(tuple(tuple(xp.entry(i, j) for j in range(r)) for i in range(r)), r)
    bottom = RationalMatrix(
        tuple(tuple(xp.entry(i, j) for j in range(r, n)) for i in range(r, n)), n - r
    )
    return top, bottom


def framed_jordan_type(v: tuple, x: RationalMatrix) -> Bipartition:
    """The marked-Jordan invariant of a vector inside a nilpotent matrix.

    Returns (mu; nu) where mu is the Jordan type of x on the centralizer
    orbit span Z(x)v and nu the type of the induced map on the quotient.
    Rows are paired largest-first; mu + nu rearranges the type of x.
    """
    if len(v) != x.nrows:
        raise ValueError("vector length must match the matrix size")
    jordan_type(x)  # raises on non-nilpotent input
    spanning = []
    v = tuple(Fraction(a) for a in v)
    if any(a != 0 for a in v):
        spanning = [c.apply(v) for c in centralizer_basis(x)]
        spanning = [w for w in spanning if any(a != 0 for a in w)]
    sub, quot = _split_by_subspace(x, spanning)
    return Bipartition(jordan_type(sub), jordan_type(quot))
