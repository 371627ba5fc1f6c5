"""Exact linear algebra over the rationals.

Everything in this module is exact: entries are :class:`fractions.Fraction`
values, and ranks, matrix products and inverses run in integer arithmetic.
Ranks come from fraction-free (Bareiss) elimination on rows cleared of
their denominators one by one.  Every product sums only nonzero terms:
``_terms`` lists the terms (j, x), x != 0, of each row of a matrix, and
``_matvec`` multiplies a matrix given by those terms by a column of
``Fraction``s, so a caller that applies one arrow many times lists its
terms once (the decomposer does, per call; ``RationalMatrix.apply`` lists
them per product).  Products of matrices and inverses share one private
integer kernel: ``_common`` writes a matrix as integers over one
denominator, ``_product`` multiplies integer matrices summing only the
listed terms of the right factor, and ``_inverse`` runs fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) to return
(H, p) with g^-1 = H / p.  ``RationalMatrix.__matmul__`` and ``inverse``
call the kernel and divide each result entry back into a ``Fraction``
once; ``rep_builder``'s base changes call it directly, so a triple product
g M g^-1 builds its ``Fraction`` entries only at the end.  ``rref`` and
``nullspace`` (exact ``Fraction`` Gauss-Jordan reduction) have no caller
in the package: they serve the test oracles and the benchmark's tracer,
which wraps them by name.  There are no tolerances anywhere in the
package; orbit invariants are discrete rank data and must stay that way.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

_ZERO = Fraction(0)


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or rational string to a Fraction.

    A string is read as ``Fraction(str)`` reads it, except that a decimal
    exponent of magnitude past ``sys.get_int_max_str_digits()`` raises
    ``ValueError`` instead of building a power of ten that long."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        # "p", "-p" and "p/q" in ASCII digits skip the Fraction(str) regex
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (
            not slash or (den.isascii() and den.isdigit())
        ):
            if not slash:
                return Fraction(int(num))
            q = int(den)
            if q == 0:
                raise ValueError(f"zero denominator in {x!r}")
            return Fraction(int(num), q)
        # Fraction(str) builds 10**exponent, so refuse an exponent past the
        # digit bound Python puts on int(str)
        e = max(x.rfind("e"), x.rfind("E"))
        exponent = x[e + 1:].rstrip().lstrip("+-").replace("_", "")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        if e >= 0 and limit and exponent.isdecimal() and int(exponent) > limit:
            raise ValueError(f"the decimal exponent in {x[:40]!r} exceeds {limit} in magnitude")
        try:
            return Fraction(x)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {x!r}") from exc
    raise ValueError(f"not an exact rational: {x!r}")


def fraction_str(x: Fraction) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    x = as_fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _cleared(row) -> tuple[list[int], int]:
    """A row of Fractions as integer numerators over the lcm of its
    denominators: ``row[j] == nums[j] / den``."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _common(rows) -> tuple[list[list[int]], int]:
    """Rows of Fractions as integer numerators over one denominator e, the
    lcm of all their denominators: ``rows[i][j] == nums[i][j] / e``."""
    e = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (e // x.denominator) for x in row] for row in rows], e


def _terms(rows) -> list[list[tuple]]:
    """The nonzero terms (j, x) of each row, x = row[j], in column order."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def _matvec(terms: list[list[tuple]], vec) -> tuple[Fraction, ...]:
    """The matrix whose rows have the nonzero terms ``terms`` (see
    ``_terms``) times the column vector vec: each entry sums the products of
    its row's terms with the nonzero entries of vec they meet, and is
    ``Fraction(0)`` when there are none."""
    out = []
    for row in terms:
        products = [x * v for j, x in row if (v := vec[j])]
        out.append(sum(products[1:], products[0]) if products else _ZERO)
    return tuple(out)


def _product(a: list[list[int]], b: list[list[int]], ncols: int) -> list[list[int]]:
    """The integer product a b, b having ncols columns: each row of a sums
    integer multiples of the nonzero terms of the rows of b it meets."""
    terms = _terms(b)
    out = []
    for row in a:
        acc = [0] * ncols
        for c, row_terms in zip(row, terms):
            if c:
                for j, x in row_terms:
                    acc[j] += c * x
        out.append(acc)
    return out


def _inverse(g: list[list[int]]) -> tuple[list[list[int]], int]:
    """(H, p) with g^-1 = H / p for a square integer matrix g; a singular g
    raises ``ValueError``.

    Fraction-free Gauss-Jordan elimination on [g | I] divides exactly at
    every step and ends at [p I | H], p the last pivot (det g up to sign)."""
    n = len(g)
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        mk = m[k]
        lead = mk[k]
        for i in range(n):
            head = m[i][k]
            if i != k and (head or lead != prev):
                m[i] = [(a * lead - head * b) // prev for a, b in zip(m[i], mk)]
        prev = lead
    return [row[n:] for row in m], prev


class RationalMatrix:
    """An immutable matrix of exact rationals.

    The row count may be zero, and so may the column count, which is why the
    column count is stored explicitly instead of being inferred from the rows.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged matrix")
            inferred = widths.pop()
            if ncols is not None and ncols != inferred:
                raise ValueError("explicit column count disagrees with rows")
            self.ncols = inferred
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    # -- constructors ------------------------------------------------------

    @classmethod
    def _built(cls, rows: tuple, ncols: int) -> "RationalMatrix":
        """A matrix of rows built here as tuples of ``ncols`` Fractions,
        taken without coercing or checking them again."""
        m = cls.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls(tuple((0,) * ncols for _ in range(nrows)), ncols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]}, ncols={self.ncols})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        # self = A / d and other = B / e, so self @ other = A B / (d e)
        a, d = _common(self.rows)
        b, e = _common(other.rows)
        den = d * e
        return RationalMatrix._built(
            tuple(tuple(Fraction(x, den) for x in row) for row in _product(a, b, other.ncols)),
            other.ncols,
        )

    def apply(self, vec: tuple) -> tuple[Fraction, ...]:
        """Matrix times column vector: ``_matvec`` over this matrix's terms."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return _matvec(_terms(self.rows), vec)

    def transpose(self) -> "RationalMatrix":
        if self.nrows == 0:
            return RationalMatrix(((),) * self.ncols, 0)
        if self.ncols == 0:
            return RationalMatrix((), self.nrows)
        return RationalMatrix(tuple(zip(*self.rows)), self.nrows)

    # -- rank and kernel -----------------------------------------------------

    def rank(self) -> int:
        """The number of pivot columns."""
        return len(self.pivot_columns())

    def pivot_columns(self) -> list[int]:
        """Pivot columns of fraction-free (Bareiss) elimination on cleared
        rows, left to right: each is independent of the columns before it,
        so the pivots among the first k columns count their rank."""
        if self.nrows == 0 or self.ncols == 0:
            return []
        m = [_cleared(row)[0] for row in self.rows]
        nrows, ncols = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        prev = 1
        for c in range(ncols):
            pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            for i in range(r + 1, nrows):
                if all(x == 0 for x in m[i]):
                    continue
                head = m[i][c]
                lead = m[r][c]
                mi, mr = m[i], m[r]
                for j in range(ncols):
                    mi[j] = (mi[j] * lead - head * mr[j]) // prev
            prev = m[r][c]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return pivots

    def rref(self) -> tuple[list[int], list[list[Fraction]]]:
        """Reduced row echelon form; returns (pivot columns, reduced rows)."""
        m = [list(row) for row in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
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

    def inverse(self) -> "RationalMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        # self = G / e, so self^-1 = e G^-1 = e H / p
        g, e = _common(self.rows)
        h, p = _inverse(g)
        return RationalMatrix._built(
            tuple(tuple(Fraction(x * e, p) for x in row) for row in h), self.ncols
        )

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """A basis of the right kernel, one tuple per basis vector."""
        pivots, m = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -m[r][fc]
            basis.append(tuple(vec))
        return basis


def block_diag(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The block-diagonal matrix: a top left, b bottom right, zeros elsewhere."""
    zeros_right, zeros_left = (Fraction(0),) * b.ncols, (Fraction(0),) * a.ncols
    rows = tuple(row + zeros_right for row in a.rows) + tuple(zeros_left + row for row in b.rows)
    return RationalMatrix._built(rows, a.ncols + b.ncols)
