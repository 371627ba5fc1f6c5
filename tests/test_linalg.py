import random
import re
import sys
from fractions import Fraction

import pytest
from linalg_oracle import dense_apply, dense_product, from_columns, rref_inverse

from nilquiver.linalg import (
    RationalMatrix,
    _matvec,
    _terms,
    as_fraction,
    block_diag,
)


def fraction_gauss_rank(rows, ncols):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rank_against_gauss_oracle():
    rng = random.Random(11)
    for _ in range(200):
        nr = rng.randint(0, 6)
        nc = rng.randint(1, 6)
        rows = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc))
            for _ in range(nr)
        )
        m = RationalMatrix(rows, nc)
        assert m.rank() == fraction_gauss_rank(rows, nc)


def test_pivot_columns_count_the_rank_of_every_prefix():
    # a pivot column is independent of the columns before it, so the pivots
    # among the first k columns are as many as the rank of those columns
    rng = random.Random(12)
    for _ in range(200):
        nr = rng.randint(0, 5)
        nc = rng.randint(1, 7)
        rows = tuple(
            tuple(Fraction(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 3)) for _ in range(nc))
            for _ in range(nr)
        )
        pivots = RationalMatrix(rows, nc).pivot_columns()
        assert pivots == sorted(set(pivots))
        for k in range(nc + 1):
            prefix = tuple(row[:k] for row in rows)
            assert sum(c < k for c in pivots) == fraction_gauss_rank(prefix, k)


def test_rank_edge_cases():
    assert RationalMatrix.zero(3, 4).rank() == 0
    assert RationalMatrix.identity(5).rank() == 5
    assert RationalMatrix((), 3).rank() == 0


def test_product_and_power():
    a = RationalMatrix(((1, 2), (0, 1)), 2)
    b = RationalMatrix(((1, 0), (3, 1)), 2)
    assert (a @ b).rows == ((Fraction(7), Fraction(2)), (Fraction(3), Fraction(1)))
    j = RationalMatrix(((0, 1), (0, 0)), 2)
    assert (j @ j).is_zero()
    assert not j.is_zero()


def test_nullspace_is_a_kernel_basis():
    rng = random.Random(5)
    for _ in range(100):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = RationalMatrix(
            tuple(tuple(rng.randint(-2, 2) for _ in range(nc)) for _ in range(nr)), nc
        )
        basis = m.nullspace()
        assert len(basis) == nc - m.rank()
        for vec in basis:
            assert all(x == 0 for x in m.apply(vec))
        if basis:
            assert RationalMatrix(tuple(basis), nc).rank() == len(basis)


def test_inverse():
    m = RationalMatrix(((2, 1), (1, 1)), 2)
    inv = m.inverse()
    assert (m @ inv) == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        RationalMatrix(((1, 1), (1, 1)), 2).inverse()


def test_stacking():
    a = RationalMatrix(((1,),), 1)
    b = RationalMatrix(((2,),), 1)
    d = block_diag(a, b)
    assert d.shape == (2, 2)
    assert d.entry(0, 1) == 0 and d.entry(1, 1) == 2
    # blocks of every shape, empty ones included, against the checking
    # constructor fed the padded rows
    c = RationalMatrix(((1, Fraction(1, 2), 0), (0, -3, 7)), 3)
    for x, y in [(c, a), (a, c), (c, RationalMatrix.zero(0, 2)), (RationalMatrix.zero(2, 0), c),
                 (RationalMatrix.zero(0, 0), RationalMatrix.zero(0, 0))]:
        d = block_diag(x, y)
        want = [list(r) + [0] * y.ncols for r in x.rows] + [[0] * x.ncols + list(r) for r in y.rows]
        assert d == RationalMatrix(want, x.ncols + y.ncols)
        assert all(type(v) is Fraction for row in d.rows for v in row)


def test_from_columns():
    m = from_columns([(1, 0), (0, 1), (1, 1)], 2)
    assert m.shape == (2, 3)
    assert m.rank() == 2
    assert from_columns([], 4).shape == (4, 0)


def test_matvec_matches_the_dense_oracle():
    # the sum over each row's listed nonzero terms against the dense sum
    # over every Fraction pair, on matrices with zero rows, zero columns and
    # 0/1 entries, and on vectors with zero entries; every entry a Fraction
    rng = random.Random(29)
    pools = ([0, 1], [0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 7)])
    for trial in range(400):
        pool = pools[trial % 2]
        nr, nc = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[rng.choice(pool) for _ in range(nc)] for _ in range(nr)]
        if nr and trial % 3 == 0:
            rows[rng.randrange(nr)] = [0] * nc
        if nc and trial % 5 < 2:
            zero_column = rng.randrange(nc)
            for row in rows:
                row[zero_column] = 0
        m = RationalMatrix(rows, nc)
        vec = tuple(as_fraction(rng.choice(pool)) for _ in range(nc))
        got = _matvec(_terms(m.rows), vec)
        assert got == dense_apply(m, vec)
        assert m.apply(vec) == got
        assert all(type(x) is Fraction for x in got)
    assert _matvec(_terms(RationalMatrix.zero(3, 2).rows), (Fraction(1), Fraction(2))) == (Fraction(0),) * 3
    assert RationalMatrix.zero(2, 0).apply(()) == (Fraction(0),) * 2
    with pytest.raises(ValueError):
        RationalMatrix.identity(2).apply((Fraction(1),))


def test_zero_dimension_products():
    a = RationalMatrix((), 3)          # 0 x 3
    b = RationalMatrix(((1,), (2,), (3,)), 1)  # 3 x 1
    assert (a @ b).shape == (0, 1)
    c = RationalMatrix(((),), 0)       # 1 x 0
    d = RationalMatrix((), 2)          # 0 x 2
    assert (c @ d).shape == (1, 2)
    assert (c @ d).is_zero()


# denominators of several digits and of both signs; Fraction keeps the sign
# in the numerator
DENOMINATORS = (1, 1, 2, -3, 7, -12, 97, -1009, 65537)


def random_rational_matrix(rng, nrows, ncols, density=0.6):
    """Seeded rational entries; some rows are all zero, and about
    1 - density of the other entries are zero."""
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.15:
            rows.append((0,) * ncols)
            continue
        rows.append(tuple(
            Fraction(rng.randint(-999, 999), rng.choice(DENOMINATORS))
            if rng.random() < density else 0
            for _ in range(ncols)
        ))
    return RationalMatrix(rows, ncols)


def all_fractions(m):
    return all(type(x) is Fraction for row in m.rows for x in row)


def test_product_matches_the_dense_fraction_oracle():
    rng = random.Random(41)
    for _ in range(300):
        r, k, c = (rng.randint(0, 5) for _ in range(3))
        a = random_rational_matrix(rng, r, k, rng.choice((0.3, 0.7, 1.0)))
        b = random_rational_matrix(rng, k, c, rng.choice((0.3, 0.7, 1.0)))
        product = a @ b
        assert product == dense_product(a, b)
        assert product.shape == (r, c) and all_fractions(product)


def test_product_edge_shapes():
    one = RationalMatrix(((Fraction(-5, 12),),), 1)
    assert (one @ one).rows == ((Fraction(25, 144),),)
    rng = random.Random(42)
    for r, k, c in ((0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (1, 1, 1)):
        a = random_rational_matrix(rng, r, k, 1.0)
        b = random_rational_matrix(rng, k, c, 1.0)
        assert (a @ b) == dense_product(a, b)
        assert (a @ b).shape == (r, c) and all_fractions(a @ b)
        if k == 0:
            assert (a @ b).is_zero()
    with pytest.raises(ValueError):
        RationalMatrix.zero(2, 3) @ RationalMatrix.zero(2, 3)


def test_inverse_matches_the_rref_oracle():
    rng = random.Random(43)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        g = random_rational_matrix(rng, n, n, rng.choice((0.5, 0.8, 1.0)))
        try:
            expected = rref_inverse(g)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="matrix is singular"):
                g.inverse()
            continue
        inv = g.inverse()
        assert inv == expected and all_fractions(inv)
        assert g @ inv == RationalMatrix.identity(n)
    assert singular > 20  # zero rows and sparse draws make singular inputs


def test_inverse_edge_cases():
    assert RationalMatrix((), 0).inverse() == RationalMatrix((), 0)
    g = RationalMatrix(((Fraction(7, -1009),),), 1)
    assert g.inverse().rows == ((Fraction(-1009, 7),),)
    # a zero first pivot needs a row swap; a dependent row is singular
    swap = RationalMatrix(((0, Fraction(1, 3)), (Fraction(-2, 5), 1)), 2)
    assert swap.inverse() == rref_inverse(swap) and all_fractions(swap.inverse())
    for rows in (
        ((0, 0), (0, 0)),
        ((1, 2), (Fraction(1, 2), 1)),
        ((Fraction(1, 3), 0, 1), (0, 1, 0), (Fraction(2, 3), 5, 2)),
    ):
        with pytest.raises(ValueError, match="matrix is singular"):
            RationalMatrix(rows, len(rows)).inverse()
    with pytest.raises(ValueError, match="non-square"):
        RationalMatrix.zero(2, 3).inverse()


def row_denominator_matrix(rng, nrows, ncols):
    """Seeded entries whose rows sit over different denominators, so that
    clearing a row and bringing rows to one denominator differ."""
    dens = [DENOMINATORS[(i + rng.randrange(9)) % 9] * (i + 1) for i in range(nrows)]
    return RationalMatrix(
        tuple(tuple(Fraction(rng.randint(-9, 9), d) for _ in range(ncols)) for d in dens), ncols
    )


def test_kernel_matches_the_oracles_on_rows_of_different_denominators():
    # the integer product and the Bareiss inverse against the Fraction
    # routes they replaced, empty shapes included
    rng = random.Random(47)
    for r, k, c in ((0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 3), (3, 0, 0), (0, 0, 0), (4, 5, 3)):
        a, b = row_denominator_matrix(rng, r, k), row_denominator_matrix(rng, k, c)
        assert a @ b == dense_product(a, b) and (a @ b).shape == (r, c)
    for r, c in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="non-square"):
            row_denominator_matrix(rng, r, c).inverse()
    inverted = 0
    for _ in range(200):
        g = row_denominator_matrix(rng, *(2 * (rng.randint(0, 6),)))
        try:
            expected = rref_inverse(g)
        except ValueError:
            with pytest.raises(ValueError, match="matrix is singular"):
                g.inverse()
            continue
        inv = g.inverse()
        assert inv == expected and all_fractions(inv) and inv.shape == g.shape
        assert inv @ g == RationalMatrix.identity(g.nrows) == g @ inv
        inverted += g.nrows > 1
    assert inverted > 100


def test_public_constructor_still_coerces_and_validates():
    # products and inverses skip the coercion; the constructor keeps it
    m = RationalMatrix(((1, "-2/4"), (Fraction(3, 9), "7")), 2)
    assert m.rows == ((1, Fraction(-1, 2)), (Fraction(1, 3), 7)) and all_fractions(m)
    for rows, message in (
        (((1, 2), (3,)), "ragged"),
        (((1.5,),), "not an exact rational"),
        (((True,),), "not an exact rational"),
        ((("1/0",),), "zero denominator"),
    ):
        with pytest.raises(ValueError, match=message):
            RationalMatrix(rows)
    with pytest.raises(ValueError, match="disagrees"):
        RationalMatrix(((1, 2),), 3)


EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def fraction_or_error(text):
    """Fraction(text), or ValueError when it refuses the text (a zero
    denominator, which it reports as ZeroDivisionError, included) or when
    the text's decimal exponent exceeds the int(str) digit bound in
    magnitude, which as_fraction refuses before Fraction builds the power."""
    exponent = EXPONENT.search(text)
    if exponent and int(exponent[1].replace("_", "")) > sys.get_int_max_str_digits():
        return ValueError
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return ValueError


def as_fraction_or_error(text):
    try:
        value = as_fraction(text)
    except ValueError:
        return ValueError
    assert type(value) is Fraction
    return value


STRING_CORPUS = [
    "0", "-0", "+0", "7", "-7", "+7", "007", "-007", "3/4", "-3/4", "+3/4", "6/8", "-0/5",
    "0/1", "05/010", "1/0", "1/00", "-1/0", "0/0", "1/-2", "1/+2", "-1/-2", "--1", "-", "",
    "/", "1/", "/2", " 1", "1 ", " 1/2 ", "1 / 2", "\t-3\n", "1_000", "1_000/3", "1__0", "_1",
    "1.5", "-.5", "1.", ".", "1e3", "1E-2", "2/3e1", "1/2/3", "0x10", "inf", "nan", "1j",
    "\u0663", "1\u0663/2", "\u00b2", "\uff11", "\u22121", "1/\u0662",
    str(3**189), "-" + str(2**300 - 1), f"{2**300 + 1}/{3**190}", f"-{2**299}/{2**300}",
    "1e4300", "1e-4300", "1.5E+4300 ", "1e4301", "1e-4301", "1.5E+4_301 ", "1e999999999",
    "-1e-999999999", "1/2e999999999", "1e 999999999",
]


def test_as_fraction_agrees_with_fraction_on_strings():
    # the integer fast path and Fraction(str) accept and reject the same
    # strings and give the same values; a zero denominator is a ValueError,
    # and so is an exponent past the int(str) digit bound (seed 44 draws 18
    # that Fraction accepts, such as '8E6725')
    for text in STRING_CORPUS:
        assert as_fraction_or_error(text) == fraction_or_error(text), repr(text)
    rng = random.Random(44)
    alphabet = "0123456789" * 3 + "-+/_ .eE\u0663"
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        assert as_fraction_or_error(text) == fraction_or_error(text), repr(text)
