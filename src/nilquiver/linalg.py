"""Exact linear algebra over the rationals.

Everything in this module is exact: entries are :class:`fractions.Fraction`
values, and ranks, products and inverses run in integer arithmetic after
clearing denominators row by row.  Ranks come from fraction-free (Bareiss)
elimination, inverses from its Gauss-Jordan form (Bareiss, Math. Comp. 22,
1968), and products sum integer multiples of the cleared rows, skipping
zero terms; each result entry is divided back into a ``Fraction`` once.
``rref`` and ``nullspace`` (exact ``Fraction`` Gauss-Jordan reduction) have
no caller in the package: they serve the test oracles and the benchmark's
tracer, which wraps them by name.  There are no
tolerances anywhere in the package; orbit invariants are discrete rank data
and must stay that way.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or canonical "p/q" string to a Fraction."""
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
        # other = N / e with N integer: each row cleared, then brought to the
        # common denominator e, keeping only its nonzero entries
        cleared = [_cleared(row) for row in other.rows]
        e = lcm(*(d for _, d in cleared))
        terms = [[(j, x * (e // d)) for j, x in enumerate(nums) if x] for nums, d in cleared]
        rows = []
        for row in self.rows:
            nums, d = _cleared(row)
            acc = [0] * other.ncols
            for c, row_terms in zip(nums, terms):
                if c:
                    for j, x in row_terms:
                        acc[j] += c * x
            den = d * e
            rows.append(tuple(Fraction(x, den) for x in acc))
        return RationalMatrix._built(tuple(rows), other.ncols)

    def apply(self, vec: tuple) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

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
        n = self.nrows
        if n == 0:
            return RationalMatrix((), 0)
        # fraction-free Gauss-Jordan on [D g | I], D the diagonal of row
        # denominators, divides exactly at every step and ends at
        # [p I | p (D g)^-1], p the last pivot (det D g up to sign); then
        # g^-1 = (D g)^-1 D
        cleared = [_cleared(row) for row in self.rows]
        m = [nums + [int(i == j) for j in range(n)] for i, (nums, _) in enumerate(cleared)]
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
        dens = [d for _, d in cleared]
        return RationalMatrix._built(
            tuple(tuple(Fraction(x * d, prev) for x, d in zip(row[n:], dens)) for row in m), n
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


def hstack(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch in hstack")
    rows = tuple(ra + rb for ra, rb in zip(a.rows, b.rows)) if a.nrows else ()
    return RationalMatrix(rows, a.ncols + b.ncols)


def vstack(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch in vstack")
    return RationalMatrix(a.rows + b.rows, a.ncols)


def block_diag(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    top = hstack(a, RationalMatrix.zero(a.nrows, b.ncols))
    bottom = hstack(RationalMatrix.zero(b.nrows, a.ncols), b)
    return vstack(top, bottom)


def from_columns(cols: list[tuple], nrows: int) -> RationalMatrix:
    """Matrix whose columns are the given vectors (each of length nrows)."""
    if not cols:
        return RationalMatrix.zero(nrows, 0)
    return RationalMatrix(tuple(zip(*cols)), len(cols))
