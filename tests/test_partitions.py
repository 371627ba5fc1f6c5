import itertools

import partition_oracle
import pytest
from enumeration_oracle import enumerate_bipartitions, enumerate_multipartitions

from nilquiver import (
    FrobeniusPartition,
    Multipartition,
    Partition,
    enumerate_partitions,
)


def boxes(lam):
    """Independent Young diagram oracle: set of (row, col), 1-based."""
    return {(i, j) for i, p in enumerate(lam.parts, 1) for j in range(1, p + 1)}


def transpose_by_columns(lam):
    cells = boxes(lam)
    width = max((j for _, j in cells), default=0)
    return Partition(sum(1 for i, jj in cells if jj == j) for j in range(1, width + 1))


def partition_numbers(n):
    """p(0..n) by Euler's pentagonal recurrence, independent of enumeration."""
    p = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p


def test_constructor_strips_zeros_and_validates():
    assert Partition([3, 1, 0, 0]) == Partition([3, 1])
    assert Partition([]).parts == ()
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    # a zero before a positive part is out of order, not a trailing zero
    with pytest.raises(ValueError, match=r"parts not weakly decreasing: \(0, 3\)"):
        Partition([0, 3])


def test_constructor_matches_the_per_zero_strip():
    # every short sequence of parts in -1..3, with any number of trailing
    # zeros: the one cut stores what stripping one zero at a time stored,
    # and a bad sequence raises the same error
    for length in range(5):
        for head in itertools.product(range(-1, 4), repeat=length):
            for zeros in (0, 1, 2, 7):
                parts = head + (0,) * zeros
                try:
                    want = partition_oracle.checked_parts(parts)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        Partition(parts)
                    assert str(got.value) == str(exc)
                    continue
                assert Partition(parts).parts == want
    assert Partition([1] + [0] * 160000).parts == (1,)
    assert Partition([0] * 100).parts == ()


def test_indexing_is_total():
    lam = Partition([3, 1])
    assert lam[0] == 3 and lam[1] == 1 and lam[5] == 0
    assert list(lam) == [3, 1]


def test_text_roundtrip():
    for text in ["[7,5,3,2,1]", "[]", "[1]"]:
        assert str(Partition.from_text(text)) == text


def test_transpose_examples():
    assert Partition([3, 1]).transpose() == Partition([2, 1, 1])
    assert Partition([]).transpose() == Partition([])
    assert Partition([7, 5, 3, 2, 1]).transpose() == Partition([5, 4, 3, 2, 2, 1, 1])


def test_transpose_matches_column_count_oracle_and_is_involutive():
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert lam.transpose() == transpose_by_columns(lam)
            assert lam.transpose().transpose() == lam


def test_diagonal_length():
    assert Partition([]).diagonal_length() == 0
    assert Partition([7, 5, 3, 2, 1]).diagonal_length() == 3
    assert Partition([1, 1, 1]).diagonal_length() == 1


def test_frobenius_examples():
    f = Partition([7, 5, 3, 2, 1]).frobenius()
    assert f.legs == (4, 2, 0) and f.arms == (6, 3, 0)
    assert Partition([]).frobenius() == FrobeniusPartition((), ())
    f = Partition([3, 2, 1, 1]).frobenius()
    assert f.legs == (3, 0) and f.arms == (2, 0)


def test_frobenius_oracle_arm_leg_counts():
    # arms/legs read straight off the box set
    for n in range(11):
        for lam in enumerate_partitions(n):
            cells = boxes(lam)
            f = lam.frobenius()
            k = len(f.legs)
            assert k == lam.diagonal_length()
            for i in range(1, k + 1):
                assert f.arms[i - 1] == sum(1 for (r, c) in cells if r == i and c > i)
                assert f.legs[i - 1] == sum(1 for (r, c) in cells if c == i and r > i)


def test_partition_of_frobenius():
    assert FrobeniusPartition((4, 2, 0), (6, 3, 0)).partition() == Partition([7, 5, 3, 2, 1])
    assert FrobeniusPartition((), ()).partition() == Partition([])
    assert FrobeniusPartition((1,), (0,)).partition() == Partition([1, 1])


def test_frobenius_roundtrip_and_size_up_to_25():
    for n in range(26):
        for lam in enumerate_partitions(n):
            f = lam.frobenius()
            assert f.partition() == lam
            assert f.size == n == f.hook_sizes().size


def strictly_decreasing_tuples(total_budget, max_len):
    """All strictly decreasing nonnegative tuples, independently generated."""
    out = [()]
    def extend(prefix, cap):
        for v in range(min(cap, total_budget), -1, -1):
            t = prefix + (v,)
            if len(t) <= max_len:
                out.append(t)
                extend(t, v - 1)
    extend((), total_budget)
    return out


def test_frobenius_roundtrip_from_the_coordinate_side():
    # every valid (legs, arms) pair of small size comes from its partition,
    # which is the one the hooks fill box by box
    seqs = strictly_decreasing_tuples(6, 3)
    for legs in seqs:
        for arms in seqs:
            if len(legs) != len(arms):
                continue
            f = FrobeniusPartition(legs, arms)
            if f.size > 14:
                continue
            assert f.partition() == partition_oracle.partition_by_boxes(f)
            assert f.partition().frobenius() == f


def test_frobenius_validation():
    with pytest.raises(ValueError):
        FrobeniusPartition((1, 1), (2, 0))
    with pytest.raises(ValueError):
        FrobeniusPartition((2,), (-1,))


def test_hook_sizes():
    assert FrobeniusPartition((4, 2, 0), (6, 3, 0)).hook_sizes() == Partition([11, 6, 1])
    assert FrobeniusPartition((), ()).hook_sizes() == Partition([])
    assert FrobeniusPartition((3, 0), (2, 0)).hook_sizes() == Partition([6, 1])


def test_transpose_swaps_frobenius_coordinates():
    for n in range(11):
        for lam in enumerate_partitions(n):
            f = lam.frobenius()
            ft = lam.transpose().frobenius()
            assert (ft.legs, ft.arms) == (f.arms, f.legs)


def test_weight_examples():
    assert Partition([3, 1]).weight(1) == 4
    assert Partition([3, 1]).weight(2) == 2
    for ell in range(1, 6):
        assert Partition([1]).weight(ell) == 1
    assert Partition([]).weight(3) == 0


def test_weight_formulas_agree():
    # the two interval descriptions count the same residues
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            f = lam.frobenius()
            for ell in range(1, 6):
                alt = sum(1 for i in range(-f.arms[0], f.legs[0] + 1) if i % ell == 0)
                assert lam.weight(ell) == alt


def test_weight_matches_the_content_loop():
    for n in range(15):
        for lam in enumerate_partitions(n):
            for ell in range(1, 6):
                assert lam.weight(ell) == partition_oracle.weight_by_contents(lam, ell)


def test_a_huge_part_is_read_off_the_parts():
    # contents -2..9999999 hold 3333334 multiples of 3; the two diagonal
    # hooks have legs 2, 0 and arms 9999999, 1
    lam = Partition([10**7, 3, 1])
    assert lam.weight(3) == 3333334
    f = lam.frobenius()
    assert (f.legs, f.arms) == ((2, 0), (9999999, 1))
    assert f.partition() == lam == partition_oracle.partition_by_boxes(f)


def test_weight_at_ell_one():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert lam.weight(1) == lam[0] + len(lam) - 1


def test_enumeration_counts_match_partition_function():
    p = partition_numbers(20)
    for n in range(21):
        assert len(enumerate_partitions(n)) == p[n]


def test_enumeration_order_is_lex_decreasing():
    got = [lam.parts for lam in enumerate_partitions(5)]
    assert got == sorted(got, reverse=True)
    assert [lam.parts for lam in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_bipartition_enumeration():
    p = partition_numbers(10)
    for n in range(9):
        expected = sum(p[k] * p[n - k] for k in range(n + 1))
        bps = enumerate_bipartitions(n)
        assert len(bps) == expected
        assert len(set((b.first.parts, b.second.parts) for b in bps)) == expected
    assert len(enumerate_bipartitions(3)) == 10
    # the documented order: first component sizes run from n down to 0;
    # within one size the first component is lex decreasing, then the second
    for n in range(9):
        got = [(b.first.size, b.first.parts, b.second.parts) for b in enumerate_bipartitions(n)]
        assert got == sorted(got, reverse=True)
    assert [str(b) for b in enumerate_bipartitions(2)] == [
        "([2];[])", "([1,1];[])", "([1];[1])", "([];[2])", "([];[1,1])",
    ]


def test_multipartition_enumeration():
    two = enumerate_multipartitions(1, 2)
    assert len(two) == 2
    assert {tuple(c.parts for c in m) for m in two} == {((1,), ()), ((), (1,))}
    p = partition_numbers(8)
    # ell = 2 count is the convolution of the partition numbers
    for n in range(7):
        assert len(enumerate_multipartitions(n, 2)) == sum(p[k] * p[n - k] for k in range(n + 1))


def test_multipartition_constructor_still_checks_its_components():
    # the fill search builds its multipartitions unchecked; this one checks
    for bad in ((1,), (Partition([1]), (2, 1)), ()):
        with pytest.raises(ValueError):
            Multipartition(bad)
    m = Multipartition([Partition([2]), Partition()])
    assert type(m.components) is tuple and str(m) == "([2],[])"


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(12, max_count=10)
