
import functools
import itertools

import pytest
from enumeration_oracle import chain_allowed

from nilquiver import (
    CircleDiagram,
    DimensionVector,
    FrobeniusCircleDiagram,
    FrobeniusPartition,
    Partition,
    bounded_circle_diagrams,
    column_residue,
    diagram_from_json,
    diagrams_of_label,
    enumerate_orbit_labels,
    enumerate_partitions,
    from_dot,
    frobenius_diagram_of_partition,
    to_ascii,
    to_dot,
    zero_hits,
)
from nilquiver import circle_diagrams, residues
from nilquiver.residues import chain_counts


def brute_force_tilings(ell, d, allowed):
    """Independent oracle: all circle multisets with total dimension d."""
    def vec(start, length):
        out = [0] * ell
        for k in range(length):
            out[(start + k) % ell] += 1
        return tuple(out)

    solutions = set()

    def rec(idx, remaining, acc):
        if all(x == 0 for x in remaining):
            solutions.add(tuple(sorted(acc)))
            return
        if idx == len(allowed):
            return
        start, length = allowed[idx]
        v = vec(start, length)
        copies = []
        while True:
            rec(idx + 1, remaining, acc + copies)
            if all(r >= x for r, x in zip(remaining, v)):
                remaining = tuple(r - x for r, x in zip(remaining, v))
                copies = copies + [(start, length)]
            else:
                break

    rec(0, tuple(d), [])
    return solutions


def test_circle_diagram_canonical_order_and_dims():
    d = CircleDiagram(2, ((0, 1), (1, 3), (0, 3)))
    assert d.circles == ((0, 3), (1, 3), (0, 1))
    assert d.dimension_vector().main == (4, 3)
    with pytest.raises(ValueError):
        CircleDiagram(2, ((2, 1),))
    with pytest.raises(ValueError):
        CircleDiagram(2, ((0, 0),))


def test_diagram_of_coloured_partition():
    # one circle per row: row i starts in block colours[i], of length lam_i
    def coloured(lam, colours, ell):
        return CircleDiagram(ell, tuple(zip(colours, lam.parts)))

    assert coloured(Partition([3]), (1,), 2).circles == ((1, 3),)
    assert coloured(Partition([2, 1]), (0, 0), 1).circles == ((0, 2), (0, 1))
    d = coloured(Partition([2, 2, 1]), (1, 0, 2), 3)
    assert d.circles == ((0, 2), (1, 2), (2, 1))
    assert d.dimension_vector().main == (1, 2, 2)


def test_frobenius_diagram_construction():
    # hooks (legs, arms) of [7,5,3,2,1] are ((4,2,0),(6,3,0)); marks are arms
    d = frobenius_diagram_of_partition(Partition([7, 5, 3, 2, 1]), 2)
    assert d.circles == ((11, 6), (6, 3), (1, 0))
    assert [s for s, _, _ in d.chains()] == [0, 1, 0]
    d = frobenius_diagram_of_partition(Partition([1]), 5)
    assert d.chains() == ((0, 1, 0),)


def test_derived_values_equal_the_validated_ones():
    # transpose, Frobenius coordinates and marked diagram are built without
    # re-validation; each must equal, field by field, with == and by hash,
    # what the checking public constructor makes of the same fields
    def same(direct, checked, fields):
        for field in fields:
            value = getattr(direct, field)
            assert value == getattr(checked, field)
            assert type(value) is type(getattr(checked, field))
        assert direct == checked and hash(direct) == hash(checked)

    for size in range(13):
        for lam in enumerate_partitions(size):
            t = lam.transpose()
            same(t, Partition(t.parts), ["parts"])
            assert all(type(x) is int for x in t.parts)
            f = lam.frobenius()
            same(f, FrobeniusPartition(f.legs, f.arms), ["legs", "arms"])
            assert all(type(x) is int for x in f.legs + f.arms)
            for ell in range(1, 5):
                d = frobenius_diagram_of_partition(lam, ell)
                same(d, FrobeniusCircleDiagram(ell, d.circles), ["ell", "circles"])
                assert d.partition() == lam


def test_frobenius_diagram_of_reference_shape():
    # three marked circles with 9, 5 and 2 vertices, marks at offsets 3, 2, 0
    d = frobenius_diagram_of_partition(Partition([4, 4, 3, 3, 1, 1]), 4)
    assert d.circles == ((9, 3), (5, 2), (2, 0))
    assert [s for s, _, _ in d.chains()] == [1, 2, 0]
    assert d.partition() == Partition([4, 4, 3, 3, 1, 1])


def test_invalid_marked_diagrams_are_rejected():
    # equal offsets fail the strictly-decreasing requirement
    with pytest.raises(ValueError):
        FrobeniusCircleDiagram(4, ((5, 2), (4, 2)))
    # equal follower counts fail it too
    with pytest.raises(ValueError):
        FrobeniusCircleDiagram(4, ((5, 1), (4, 0)))
    with pytest.raises(ValueError):
        FrobeniusCircleDiagram(2, ((3, 3),))


def test_partition_diagram_roundtrip():
    for ell in (1, 2, 3, 4, 5):
        for n in range(0, 21):
            for lam in enumerate_partitions(n):
                d = frobenius_diagram_of_partition(lam, ell)
                assert d.partition() == lam


def test_single_marked_circle():
    d = FrobeniusCircleDiagram(3, ((1, 0),))
    assert d.partition() == Partition([1])
    assert d.weight() == 1


def test_weight_agreement_with_partitions():
    assert frobenius_diagram_of_partition(Partition([3, 1]), 2).weight() == 2
    for ell in (1, 2, 3, 4):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                d = frobenius_diagram_of_partition(lam, ell)
                assert d.weight() == lam.weight(ell)
                if ell == 1:
                    assert d.weight() == d.circles[0][0]
    assert FrobeniusCircleDiagram(2, ()).weight() == 0


def test_diagram_dimension_vector_is_the_column_residue():
    for ell in (1, 2, 3, 4):
        for n in range(11):
            for lam in enumerate_partitions(n):
                d = frobenius_diagram_of_partition(lam, ell)
                assert d.dimension_vector() == column_residue(lam, ell)


def test_weight_filtered_bijection():
    # marked diagrams of weight <= x correspond to partitions of weight <= x
    ell, x = 2, 1
    for n in range(0, 9):
        lams = [lam for lam in enumerate_partitions(n) if lam.weight(ell) <= x]
        diags = {frobenius_diagram_of_partition(lam, ell) for lam in lams}
        assert len(diags) == len(lams)
        for d in diags:
            assert d.weight() <= x


def test_bounded_circle_diagrams_against_tiling_oracle():
    # the oracle's circle list is filtered by the same two predicates; the
    # zero entries make the search meet zero remainders before the last
    # vertex, where the caps also bind
    cases = [(1, (3,)), (2, (2, 1)), (3, (1, 1, 1)), (2, (2, 2)), (3, (2, 2, 2))]
    cases += [(1, (0,)), (3, (0, 0, 0)), (3, (2, 0, 0)), (3, (1, 0, 2)), (4, (0, 2, 0, 1))]
    for ell, main in cases:
        d = DimensionVector(0, main)
        total = sum(main)
        for max_length in (None, *range(1, total + 1)):
            for max_zero_hits in (None, 1, 2):
                allowed = [
                    (s, p)
                    for p in range(total, 0, -1)
                    for s in range(ell)
                    if (max_length is None or p <= max_length)
                    and (max_zero_hits is None
                         or sum((s + k) % ell == 0 for k in range(p)) <= max_zero_hits)
                ]
                want = brute_force_tilings(ell, main, allowed)
                got = bounded_circle_diagrams(ell, d, max_length, max_zero_hits)
                case = (ell, main, max_length, max_zero_hits)
                assert {tuple(sorted(x.circles)) for x in got} == want, case
                assert len(got) == len(want), case
                assert [x.circles for x in got] == sorted(x.circles for x in got), case


def test_bounded_circle_diagrams_of_many_short_circles():
    # two thousand circles of length 1: the search must not nest once per circle
    got = bounded_circle_diagrams(1, DimensionVector(0, (2000,)), max_length=1)
    assert [d.circles for d in got] == [((0, 1),) * 2000]


def test_bounded_circle_diagram_filters():
    assert [d.circles for d in bounded_circle_diagrams(1, DimensionVector(0, (1,)), max_length=1)] == [((0, 1),)]
    got = bounded_circle_diagrams(1, DimensionVector(0, (2,)), max_length=1)
    assert [d.circles for d in got] == [((0, 1), (0, 1))]
    # the nilpotency-degree filter keeps exactly the circles passing 0 at most once
    got = bounded_circle_diagrams(2, DimensionVector(0, (1, 1)), max_zero_hits=1)
    for diag in got:
        for s, p in diag.circles:
            assert zero_hits(s, p, 2) <= 1
    # the single full cycles survive the filter
    assert any(d.circles == ((0, 2),) for d in got)
    assert any(d.circles == ((1, 2),) for d in got)


def test_bounded_circle_diagrams_cap_bounds_the_output(monkeypatch):
    # the block-0 bound applies inside the search: (0; 30) has 5,604 fills
    # but one diagram whose circles pass block 0 at most once
    capped = functools.partial(residues.chain_fills, max_count=1000)
    monkeypatch.setattr(circle_diagrams, "chain_fills", capped)
    got = bounded_circle_diagrams(1, DimensionVector(0, (30,)), max_zero_hits=1)
    assert [d.circles for d in got] == [((0, 1),) * 30]
    with pytest.raises(ValueError, match="cap of 1000"):
        bounded_circle_diagrams(1, DimensionVector(0, (30,)))


def test_bounded_circle_diagrams_over_the_cap_do_bounded_work(monkeypatch):
    # each state's choices are generated only until their count passes the
    # cap, not listed whole first: (0; 40) has 37,338 partitions of 40
    capped = functools.partial(residues.chain_fills, max_count=1000)
    monkeypatch.setattr(circle_diagrams, "chain_fills", capped)
    calls = []
    real = residues.chain_fillable

    def counted(remaining, vertex):
        calls.append(vertex)
        return real(remaining, vertex)

    monkeypatch.setattr(residues, "chain_fillable", counted)
    with pytest.raises(ValueError, match="cap of 1000$"):
        bounded_circle_diagrams(1, DimensionVector(0, (40,)))
    assert 0 < len(calls) < 20_000


def test_bounded_circle_diagrams_reject_a_nonpositive_block_0_bound():
    # refused up front, also where no circle would reach the bound
    for d in (DimensionVector(0, (0,)), DimensionVector(0, (2, 1))):
        with pytest.raises(ValueError, match="max_zero_hits must be positive"):
            bounded_circle_diagrams(d.ell, d, max_zero_hits=0)


@pytest.mark.parametrize(
    "main,max_length", [((2,), 0), ((2,), -3), ((0, 0), -1), ((0,), 0)]
)
def test_bounded_circle_diagrams_reject_a_nonpositive_length_bound(main, max_length):
    # refused up front: not read as "no diagrams", nor as the empty diagram
    d = DimensionVector(0, main)
    with pytest.raises(ValueError, match="max_length must be positive"):
        bounded_circle_diagrams(d.ell, d, max_length=max_length)


def test_bounded_circle_diagrams_equal_the_filtered_listing():
    # every signature with entries <= 3 at ell <= 3 and <= 2 at ell = 4
    for ell, top in [(1, 3), (2, 3), (3, 3), (4, 2)]:
        for main in itertools.product(range(top + 1), repeat=ell):
            d = DimensionVector(0, main)
            for max_length in (None, 1, 2, 3, 5):
                listed = bounded_circle_diagrams(ell, d, max_length)
                for x in (1, 2):
                    got = bounded_circle_diagrams(ell, d, max_length, x)
                    want = [c for c in listed if all(chain_allowed(s, p, ell, x) for s, p in c.circles)]
                    assert got == want, (main, max_length, x)
                    caps = tuple(
                        min(sum(main) if max_length is None else max_length, (-v) % ell + x * ell)
                        for v in range(ell)
                    )
                    assert len(got) == chain_counts(ell, caps, main)[main], (main, max_length, x)
                assert len(listed) == chain_counts(ell, (max_length or sum(main),) * ell, main)[main]


def test_json_roundtrip():
    d = frobenius_diagram_of_partition(Partition([4, 2]), 3)
    assert diagram_from_json(d.to_json()) == d
    c = CircleDiagram(3, ((0, 2), (2, 5)))
    assert diagram_from_json(c.to_json()) == c
    # the "marked" flag keeps the empty marked diagram marked
    for ell in (1, 2, 3):
        for empty in (FrobeniusCircleDiagram(ell, ()), CircleDiagram(ell, ())):
            back = diagram_from_json(empty.to_json())
            assert back == empty and type(back) is type(empty)
    # JSON without the flag parses as the circles' marks say
    assert diagram_from_json({k: v for k, v in d.to_json().items() if k != "marked"}) == d
    assert diagram_from_json({"ell": 2, "circles": []}) == CircleDiagram(2, ())
    bad = d.to_json()
    bad["circles"][0]["start"] = (bad["circles"][0]["start"] + 1) % 3
    with pytest.raises(ValueError):
        diagram_from_json(bad)
    # a flag that is not a bool, or that contradicts the circles, is refused
    for bad in ({**d.to_json(), "marked": flag} for flag in (False, "yes", 1)):
        with pytest.raises(ValueError):
            diagram_from_json(bad)
    with pytest.raises(ValueError):
        diagram_from_json({**c.to_json(), "marked": True})


@pytest.mark.parametrize("ell, n", [(2, 3), (3, 2)])
def test_json_roundtrip_of_every_diagram_of_a_cone(ell, n):
    for label in enumerate_orbit_labels(n, ell):
        for d in diagrams_of_label(label):
            back = diagram_from_json(d.to_json())
            assert back == d and type(back) is type(d)


def test_dot_roundtrip():
    # [1] at ell 3 and a circle in blocks 0-1 at ell 4 leave the top blocks
    # empty: ell is read from the block clusters, not from the nodes
    for parts, ell in [([4, 4, 3, 3, 1, 1], 4), ([2, 1], 2), ([1], 3)]:
        d = frobenius_diagram_of_partition(Partition(parts), ell)
        assert from_dot(to_dot(d)) == d
    for c in (CircleDiagram(3, ((0, 4), (2, 2), (2, 2))), CircleDiagram(4, ((0, 2),)), CircleDiagram(2, ())):
        assert from_dot(to_dot(c)) == c
    # the graph comment keeps the empty marked diagram marked
    for ell in (1, 2, 3, 4):
        for empty in (FrobeniusCircleDiagram(ell, ()), CircleDiagram(ell, ())):
            back = from_dot(to_dot(empty))
            assert back == empty and type(back) is type(empty)
    # DOT without the comment parses as the circles' marks say; a comment
    # that contradicts them is refused
    d = frobenius_diagram_of_partition(Partition([2, 1]), 2)
    assert from_dot(to_dot(d).replace('  comment="marked";\n', "")) == d
    with pytest.raises(ValueError, match="contradicts"):
        from_dot(to_dot(d).replace('"marked"', '"unmarked"'))
    c = CircleDiagram(2, ((0, 2),))
    with pytest.raises(ValueError, match="contradicts"):
        from_dot(to_dot(c).replace("rankdir=LR;", 'rankdir=LR;\n  comment="marked";'))


def test_chains_put_the_mark_in_block_0():
    for ell in (1, 2, 3, 4):
        for n in range(10):
            for lam in enumerate_partitions(n):
                d = frobenius_diagram_of_partition(lam, ell)
                chains = d.chains()
                assert [(p, o) for _, p, o in chains] == list(d.circles)
                assert all((s + o) % ell == 0 for s, _, o in chains)
    c = CircleDiagram(3, ((0, 2), (2, 5), (1, 1)))
    assert c.chains() == ((2, 5, None), (0, 2, None), (1, 1, None))
    assert CircleDiagram(2, ()).chains() == () == FrobeniusCircleDiagram(2, ()).chains()


def test_ascii_render_is_deterministic():
    d = frobenius_diagram_of_partition(Partition([3, 1]), 2)
    assert to_ascii(d) == to_ascii(d)
    assert "circle 1" in to_ascii(d)
