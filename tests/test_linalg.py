import random
from fractions import Fraction

import pytest

from nilquiver.linalg import RationalMatrix, block_diag, from_columns, hstack, vstack


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
    assert hstack(a, b).shape == (1, 2)
    assert vstack(a, b).shape == (2, 1)
    d = block_diag(a, b)
    assert d.shape == (2, 2)
    assert d.entry(0, 1) == 0 and d.entry(1, 1) == 2


def test_from_columns():
    m = from_columns([(1, 0), (0, 1), (1, 1)], 2)
    assert m.shape == (2, 3)
    assert m.rank() == 2
    assert from_columns([], 4).shape == (4, 0)


def test_zero_dimension_products():
    a = RationalMatrix((), 3)          # 0 x 3
    b = RationalMatrix(((1,), (2,), (3,)), 1)  # 3 x 1
    assert (a @ b).shape == (0, 1)
    c = RationalMatrix(((),), 0)       # 1 x 0
    d = RationalMatrix((), 2)          # 0 x 2
    assert (c @ d).shape == (1, 2)
    assert (c @ d).is_zero()
