import json
import random
from fractions import Fraction

import pytest
import linalg_oracle

from nilquiver import (
    DimensionVector,
    Multipartition,
    OrbitLabel,
    Partition,
    QuiverRep,
    StripedBipartition,
    build_chain,
    build_framed,
    build_framed_jordan,
    build_label_rep,
    build_striped,
    conjugate,
    dim_framed,
    direct_sum,
    enumerate_orbit_labels,
    enumerate_partitions,
    isomorphic,
    random_base_change,
    run_vector,
    zero_hits,
)
from nilquiver.linalg import RationalMatrix
from nilquiver.rep_builder import label_chains
from enumeration_oracle import enumerate_bipartitions
from linalg_oracle import random_invertible, rank_tested_invertible

P = Partition


def test_chain_shapes_and_maps():
    u = build_chain(0, 1, 1)
    assert u.dims.main == (1,)
    assert u.maps[0].is_zero()
    # one-vertex chain of length n is a single nilpotent Jordan block
    u = build_chain(0, 4, 1)
    assert u.dims.main == (4,)
    assert u.maps[0].rank() == 3
    powers = [RationalMatrix.identity(4)]
    for _ in range(4):
        powers.append(u.maps[0] @ powers[-1])
    assert powers[4].is_zero() and not powers[3].is_zero()


def test_chain_dims_match_the_residue_formula():
    for ell in (1, 2, 3, 4):
        for i in range(ell):
            for length in range(1, 11):
                assert build_chain(i, length, ell).dims == DimensionVector(0, run_vector(i, length, ell))
    assert build_chain(2, 10, 4).dims.main == (2, 2, 3, 3)


def test_chain_nilpotency_degree_counts_zero_hits():
    for ell in (1, 2, 3):
        for i in range(ell):
            for length in range(1, 9):
                rep = build_chain(i, length, ell)
                assert rep.nilpotency_degree() == zero_hits(i, length, ell)


def test_framed_dims_and_framing_vector():
    rep = build_framed(P([1]), 2)
    assert rep.dims.main == (1, 0)
    assert rep.framing_vector == (Fraction(1),)
    rep = build_framed(P([]), 3)
    assert rep.dims.main == (0, 0, 0)
    assert rep.framing_vector == ()
    for ell in (1, 2, 3):
        for n in range(0, 13):
            for lam in enumerate_partitions(n):
                assert build_framed(lam, ell).dims == dim_framed(lam, ell)


def test_framed_nilpotency_degree_is_the_weight():
    for ell in (1, 2, 3):
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                assert build_framed(lam, ell).nilpotency_degree() == lam.weight(ell)


def test_framed_jordan_normal_form():
    rep = build_framed_jordan(P([2, 1]), P([3, 0]))
    # Jordan type (5, 1), marked at columns 2 and 1 of the two rows
    assert rep.dims.main == (6,)
    fv = rep.framing_vector
    assert [i for i, x in enumerate(fv) if x] == [1, 5]
    x = rep.maps[0]
    powers = [RationalMatrix.identity(6)]
    for _ in range(5):
        powers.append(x @ powers[-1])
    assert powers[5].is_zero() and not powers[4].is_zero()


def test_framed_jordan_trivial_cases():
    rep = build_framed_jordan(P([4]), P([]))
    assert [i for i, x in enumerate(rep.framing_vector) if x] == [3]
    rep = build_framed_jordan(P([]), P([3]))
    assert all(x == 0 for x in rep.framing_vector)


def test_framed_agrees_with_jordan_normal_form():
    # the chain-built framed module is isomorphic to the marked Jordan form
    # of the corresponding bipartition (legs + 1; arms)
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            f = lam.frobenius()
            mu = P([leg + 1 for leg in f.legs])
            nu = P(list(f.arms))
            assert isomorphic(build_framed(lam, 1), build_framed_jordan(mu, nu))


def test_striped_representative_one_vertex_case():
    for n in range(5):
        for bp in enumerate_bipartitions(n):
            k = max(len(bp.first), len(bp.second))
            lam = P([bp.first[i] + bp.second[i] for i in range(k)])
            s = StripedBipartition(1, lam, (0,) * k, tuple(bp.first[i] for i in range(k)))
            assert isomorphic(build_striped(s), build_framed_jordan(bp.first, bp.second))


def test_striped_single_row():
    for ell in (2, 3):
        s = StripedBipartition(ell, P([ell]), (0,), (ell,))
        rep = build_striped(s)
        assert rep.dims.main == tuple([1] * ell)
        assert isomorphic(rep, build_framed(P([1] * ell), ell))


def test_direct_sum():
    a = build_chain(0, 1, 1)
    b = build_chain(0, 1, 1)
    s = direct_sum(a, b)
    assert s.dims.main == (2,)
    assert s.maps[0].is_zero()
    framed = build_framed(P([2]), 2)
    total = direct_sum(framed, build_chain(1, 1, 2))
    assert total.dims.main == (1, 2)
    assert total.framed
    with pytest.raises(ValueError):
        direct_sum(framed, framed)


def test_label_representative():
    label = OrbitLabel(P([2, 1]), Multipartition((P([2]), P([1, 1]), P())))
    rep = build_label_rep(label)
    assert rep.dims == label.dimension_vector()


def test_json_roundtrip_is_bit_exact():
    rng = random.Random(3)
    rep = build_label_rep(OrbitLabel(P([2, 1]), Multipartition((P([1]), P([2])))))
    moved = random_base_change(rep, rng)
    data = json.loads(json.dumps(moved.to_json()))
    assert QuiverRep.from_json(data) == moved
    # rationals survive exactly
    assert any("/" in x for row_block in data["maps"] for row in row_block for x in row)


def test_conjugation_preserves_dims_and_rejects_bad_shapes():
    rep = build_framed(P([2, 1]), 2)
    rng = random.Random(0)
    moved = random_base_change(rep, rng)
    assert moved.dims == rep.dims
    with pytest.raises(ValueError):
        conjugate(rep, [RationalMatrix.identity(1)])


@pytest.mark.parametrize("ell, n", [(1, 6), (2, 4), (3, 3), (4, 2)])
def test_seeded_base_changes_match_the_fraction_oracle(ell, n):
    # the benchmark disguises its inputs this way, so this pins them too
    for seed, label in enumerate(enumerate_orbit_labels(n, ell)):
        rep = build_label_rep(label)
        moved = random_base_change(rep, random.Random(seed))
        rng = random.Random(seed)
        draws = [random_invertible(d, rng) for d in rep.dims.main]
        expected = linalg_oracle.conjugate(rep, draws)
        assert json.dumps(moved.to_json()) == json.dumps(expected.to_json()), label


@pytest.mark.parametrize("ell, n", [(1, 5), (2, 3), (3, 2)])
def test_base_change_draws_match_the_rank_tested_route(ell, n):
    # random_base_change tests and inverts each draw with one elimination;
    # the old route redrew while the Fraction rank fell short and inverted
    # in conjugate, so a singular draw refused by the one and not the other
    # would put the generators out of step
    for seed, label in enumerate(enumerate_orbit_labels(n, ell)):
        rep = build_label_rep(label)
        rng = random.Random(seed)
        moved = random_base_change(rep, rng)
        old_rng = random.Random(seed)
        draws = [rank_tested_invertible(d, old_rng) for d in rep.dims.main]
        expected = linalg_oracle.conjugate(rep, draws)
        assert moved == expected, label
        assert rng.getstate() == old_rng.getstate(), label
        # a second change from the same generator stays in step as well
        assert random_base_change(rep, rng) == linalg_oracle.conjugate(
            rep, [rank_tested_invertible(d, old_rng) for d in rep.dims.main]
        ), label


#: Row denominators of the rational transforms, both signs.
ROW_DENOMINATORS = (1, 2, -3, 5, 7, -4, 9, 11, -13, 16)


def rational_transform(rng, n):
    """An invertible n x n rational matrix, each row over its own
    denominator."""
    while True:
        shift = rng.randrange(len(ROW_DENOMINATORS))
        dens = [ROW_DENOMINATORS[(i + shift) % len(ROW_DENOMINATORS)] for i in range(n)]
        g = RationalMatrix(
            tuple(tuple(Fraction(rng.randint(-3, 3), d) for _ in range(n)) for d in dens), n
        )
        if g.rank() == n:
            return g


def random_rational_rep(rng, dims):
    """Dense arrows and framing vector with mixed denominators; conjugation
    needs no nilpotency."""
    def entry():
        return Fraction(rng.randint(-20, 20), rng.choice(ROW_DENOMINATORS))

    main, ell = dims.main, dims.ell
    maps = tuple(
        RationalMatrix(
            tuple(tuple(entry() for _ in range(main[i])) for _ in range(main[(i + 1) % ell])),
            main[i],
        )
        for i in range(ell)
    )
    fv = tuple(entry() for _ in range(main[0])) if dims.framing else ()
    return QuiverRep(ell, dims, maps, fv)


def assert_conjugate_matches_the_oracle(rep, transforms):
    got = conjugate(rep, transforms)
    expected = linalg_oracle.conjugate(rep, transforms)
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json())
    assert got == expected


@pytest.mark.parametrize("ell, n", [(1, 4), (2, 3), (3, 2), (4, 2)])
def test_conjugate_matches_the_oracle_under_rational_transforms(ell, n):
    # the integer triple product against two Fraction products and the
    # rref inverse: 0/1 label representatives, and dense rational ones
    rng = random.Random(100 * ell + n)
    for label in enumerate_orbit_labels(n, ell)[::5]:
        rep = build_label_rep(label)
        for case in (rep, random_rational_rep(rng, rep.dims)):
            transforms = [rational_transform(rng, d) for d in case.dims.main]
            assert_conjugate_matches_the_oracle(case, transforms)


@pytest.mark.parametrize(
    "framing, main",
    [(0, (0,)), (1, (0,)), (1, (0, 2, 0)), (0, (3, 0)), (1, (2, 0, 0, 1)), (1, (0, 0, 3)), (0, (0, 0))],
)
def test_conjugate_matches_the_oracle_at_zero_dimensional_vertices(framing, main):
    rng = random.Random(sum(main) + 10 * framing)
    dims = DimensionVector(framing, main)
    for _ in range(5):
        rep = random_rational_rep(rng, dims)
        assert_conjugate_matches_the_oracle(rep, [rational_transform(rng, d) for d in main])
        state = rng.getstate()
        moved = random_base_change(rep, rng)
        rng.setstate(state)
        assert moved == linalg_oracle.conjugate(rep, [random_invertible(d, rng) for d in main])


def test_conjugate_rejects_transforms_of_the_wrong_shape():
    rep = random_rational_rep(random.Random(5), DimensionVector(1, (2, 2)))
    square = RationalMatrix.identity(2)
    for transforms in (
        [square, RationalMatrix.identity(3)],
        [RationalMatrix.zero(2, 3), square],
        [RationalMatrix((), 0), square],
    ):
        with pytest.raises(ValueError, match="has shape"):
            conjugate(rep, transforms)
    with pytest.raises(ValueError, match="singular"):
        conjugate(rep, [square, RationalMatrix.zero(2, 2)])


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


def test_random_invertible_draws_as_the_rank_tested_route():
    # the same matrices and the same generator state as redrawing by rank
    rng, old_rng = random.Random(3), CountingRandom(3)
    for n in (0, 1, 2, 3, 4) * 40:
        g = random_invertible(n, rng)
        assert g == linalg_oracle.rank_tested_invertible(n, old_rng)
        assert rng.getstate() == old_rng.getstate()
        assert g.inverse() @ g == RationalMatrix.identity(n)
    # singular draws were made and redrawn
    assert old_rng.draws > 40 * (1 + 4 + 9 + 16)


def test_quiver_rep_validation():
    with pytest.raises(ValueError):
        QuiverRep(2, dim_framed(P([1]), 2), (RationalMatrix.zero(1, 1),), (1,))
    rep = build_framed(P([1]), 2)
    with pytest.raises(ValueError):
        QuiverRep(2, rep.dims, rep.maps, (1, 1))


def test_label_chains_order():
    # hooks longest first, each starting at -arm mod ell; then nu by vertex,
    # parts decreasing
    label = OrbitLabel(P([4, 2]), Multipartition((P([3, 1]), P([2]))))
    assert label_chains(label) == [(1, 5, 3), (0, 1, 0), (0, 3, None), (0, 1, None), (1, 2, None)]
    label = OrbitLabel(P([3, 3, 1]), Multipartition((P(), P([2, 2]), P([1]))))
    assert label_chains(label) == [(1, 5, 2), (2, 2, 1), (1, 2, None), (1, 2, None), (2, 1, None)]
