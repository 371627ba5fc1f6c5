import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilquiver import (
    Bipartition,
    Decomposition,
    DimensionVector,
    Multipartition,
    OrbitLabel,
    Partition,
    build_chain,
    build_framed,
    build_framed_jordan,
    build_label_rep,
    build_striped,
    bipartition_to_label,
    chain_multiplicities,
    decompose_enhanced,
    direct_sum,
    enumerate_orbit_labels,
    enumerate_partitions,
    enumerate_striped,
    framed_jordan_type,
    isomorphic,
    random_base_change,
    striped_label,
)
from nilquiver.decomposer import _krylov_spans, _label_invariants, _label_of_chains, _rank_tables
from nilquiver.linalg import RationalMatrix
from nilquiver.rep_builder import QuiverRep

import jordan_oracle
from enumeration_oracle import enumerate_bipartitions
from fingerprint_oracle import (
    _HomProbing,
    candidate_labels,
    fingerprint_decompose,
    hom_dim,
    hom_fingerprint,
    label_fingerprint,
)
from jordan_oracle import centralizer_basis, jordan_type
from linalg_oracle import random_invertible
from rank_oracle import path_ranks

P = Partition


def jordan_matrix(blocks):
    """Independent construction: superdiagonal 1s inside each block."""
    n = sum(blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for j in range(1, b):
            rows[offset + j - 1][offset + j] = Fraction(1)
        offset += b
    return RationalMatrix(tuple(tuple(r) for r in rows), n)


def test_jordan_type_known_forms():
    assert jordan_type(jordan_matrix([3, 1])) == P([3, 1])
    assert jordan_type(RationalMatrix.zero(4, 4)) == P([1, 1, 1, 1])
    assert jordan_type(RationalMatrix((), 0)) == P([])


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        jordan_type(RationalMatrix.identity(2))


def test_jordan_type_is_conjugation_invariant():
    rng = random.Random(17)
    for blocks in [[4, 2], [3, 3, 1], [5], [2, 2, 1, 1]]:
        x = jordan_matrix(blocks)
        for _ in range(5):
            g = random_invertible(x.nrows, rng)
            assert jordan_type(g @ x @ g.inverse()) == P(blocks)


def test_centralizer_dimensions():
    # dim of the centralizer of J_lambda is sum over pairs of min(lam_i, lam_j)
    for blocks in [[3], [1, 1, 1], [2, 1], [3, 2], [4, 2, 1]]:
        want = sum(min(a, b) for a in blocks for b in blocks)
        assert len(centralizer_basis(jordan_matrix(blocks))) == want
    assert len(centralizer_basis(jordan_matrix([5]))) == 5
    assert len(centralizer_basis(RationalMatrix.zero(3, 3))) == 9
    assert len(centralizer_basis(jordan_matrix([2, 1]))) == 5


def test_framed_jordan_type_examples():
    x = jordan_matrix([3])
    assert framed_jordan_type((0, 0, 0), x) == Bipartition(P([]), P([3]))
    x = jordan_matrix([5, 1])
    v = tuple(Fraction(1) if i in (1, 5) else Fraction(0) for i in range(6))
    pair = framed_jordan_type(v, x)
    assert (pair.first, pair.second) == (P([2, 1]), P([3]))


def test_framed_jordan_type_roundtrip():
    for n in range(7):
        for bp in enumerate_bipartitions(n):
            rep = build_framed_jordan(bp.first, bp.second)
            pair = framed_jordan_type(rep.framing_vector, rep.maps[0])
            assert (pair.first, pair.second) == (bp.first, bp.second)


def test_framed_jordan_type_is_orbit_invariant():
    rng = random.Random(23)
    for bp_parts in [((2, 1), (3,)), ((3,), (1, 1)), ((2, 2), ())]:
        mu, nu = P(bp_parts[0]), P(bp_parts[1])
        rep = build_framed_jordan(mu, nu)
        for _ in range(3):
            moved = random_base_change(rep, rng)
            pair = framed_jordan_type(moved.framing_vector, moved.maps[0])
            assert (pair.first, pair.second) == (mu, nu)


def test_framed_jordan_type_matches_the_centralizer_oracle():
    # the label route against the centralizer route, on every marked Jordan
    # normal form to n = 6, plain and disguised
    rng = random.Random(3)
    for n in range(7):
        for bp in enumerate_bipartitions(n):
            rep = build_framed_jordan(bp.first, bp.second)
            for case in (rep, random_base_change(rep, rng)):
                v, x = case.framing_vector, case.maps[0]
                assert framed_jordan_type(v, x) == jordan_oracle.framed_jordan_type(v, x) == bp
        # a zero vector leaves the whole Jordan type to the quotient
        for lam in enumerate_partitions(n):
            v, x = (0,) * n, jordan_matrix(lam.parts)
            want = Bipartition(P([]), lam)
            assert framed_jordan_type(v, x) == jordan_oracle.framed_jordan_type(v, x) == want
    v, x = (), RationalMatrix((), 0)
    assert framed_jordan_type(v, x) == jordan_oracle.framed_jordan_type(v, x) == Bipartition(P([]), P([]))
    # a non-nilpotent matrix, and a vector of the wrong length
    bad = [((1, 0), RationalMatrix.identity(2)), ((1, 0, 0), jordan_matrix([2]))]
    for route in (framed_jordan_type, jordan_oracle.framed_jordan_type):
        for v, x in bad:
            with pytest.raises(ValueError):
                route(v, x)


def test_chain_multiplicities_of_constructed_sums():
    rep = build_chain(1, 3, 2)
    assert chain_multiplicities(rep) == {(1, 3): 1}
    rep = direct_sum(build_chain(0, 2, 2), build_chain(1, 1, 2))
    assert chain_multiplicities(rep) == {(0, 2): 1, (1, 1): 1}
    nu = decompose_enhanced(rep).plain_parts
    assert [c.parts for c in nu] == [(2,), (1,)]


def test_chain_multiplicities_random_sums_with_base_change():
    rng = random.Random(41)
    for _ in range(25):
        ell = rng.randint(1, 4)
        summands = []
        want = {}
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(ell)
            length = rng.randint(1, 4)
            summands.append(build_chain(i, length, ell))
            want[(i, length)] = want.get((i, length), 0) + 1
        rep = summands[0]
        for s in summands[1:]:
            rep = direct_sum(rep, s)
        moved = random_base_change(rep, rng)
        assert chain_multiplicities(moved) == want


def test_chain_multiplicities_additivity():
    a = direct_sum(build_chain(0, 2, 3), build_chain(2, 2, 3))
    b = build_chain(1, 4, 3)
    both = chain_multiplicities(direct_sum(a, b))
    separate = chain_multiplicities(a)
    for key, m in chain_multiplicities(b).items():
        separate[key] = separate.get(key, 0) + m
    assert both == separate


def test_chain_multiplicities_reject_non_nilpotent():
    loop = QuiverRepFactory_identity_loop()
    with pytest.raises(ValueError):
        chain_multiplicities(loop)


def QuiverRepFactory_identity_loop():
    from nilquiver import QuiverRep

    return QuiverRep(
        1, DimensionVector(0, (1,)), (RationalMatrix.identity(1),), ()
    )


def test_hom_dim_examples():
    u = build_chain(0, 1, 1)
    assert hom_dim(u, u) == 1
    assert hom_dim(build_chain(0, 2, 1), build_chain(0, 1, 1)) == 1
    m = build_chain(1, 3, 2)
    double = direct_sum(m, m)
    assert hom_dim(m, double) == 2 * hom_dim(m, m)


def test_endomorphism_dimension_bounds_summand_count():
    # dim End is at least the number of indecomposable summands
    rep = direct_sum(build_framed(P([2, 1]), 2), build_chain(0, 2, 2))
    rep = direct_sum(rep, build_chain(1, 1, 2))
    assert hom_dim(rep, rep) >= 3
    u = build_chain(0, 3, 1)
    assert hom_dim(u, u) == 3  # polynomials in the block


def test_hom_dim_framing_sensitivity():
    framed = build_framed(P([1]), 1)          # nonzero framing vector
    v_zero = direct_sum(build_framed(P([]), 1), build_chain(0, 1, 1))
    assert framed.dims == v_zero.dims
    probe = build_framed(P([]), 1)            # framing-only probe
    assert hom_dim(probe, framed) == 0
    assert hom_dim(probe, v_zero) == 1


def test_fast_framed_probing_agrees_with_the_linear_system():
    # the closed-form probe homs must match the general intertwiner count
    rng = random.Random(9)
    labels = enumerate_orbit_labels(1, 2) + enumerate_orbit_labels(2, 2)
    probes = sorted({l.lam for l in labels} | {P([])}, key=lambda p: p.parts)
    for label in labels:
        rep = build_label_rep(label)
        moved = random_base_change(rep, rng)
        probing = _HomProbing(moved)
        for lam in probes:
            assert probing.framed_hom(lam) == hom_dim(build_framed(lam, 2), moved)
        for i in range(2):
            for length in (1, 2, 3):
                assert probing.chain_hom(i, length) == hom_dim(
                    build_chain(i, length, 2), moved
                )


def test_label_fingerprint_matches_linear_algebra():
    # the closed-form candidate fingerprint against the probes of the built
    # representative, over every label and probe partition of each cone
    for ell, top in [(1, 6), (2, 3), (3, 2), (4, 2)]:
        for n in range(top + 1):
            labels = enumerate_orbit_labels(n, ell)
            probes = tuple(sorted({l.lam for l in labels}, key=lambda p: p.parts))
            for label in labels:
                probing = _HomProbing(build_label_rep(label))
                want = tuple(probing.framed_hom(lam) for lam in probes)
                assert label_fingerprint(label, probes) == want, label


def test_label_fingerprint_separates_candidates():
    # for each chain multiset of the cone, the candidates the oracle
    # enumerates must have pairwise distinct fingerprints
    from nilquiver.rep_builder import label_chains

    for ell, n in [(1, 10), (1, 14), (2, 5), (2, 6), (3, 4), (4, 3), (5, 2)]:
        seen = set()
        for label in enumerate_orbit_labels(n, ell):
            mult = Counter((start, length) for start, length, _ in label_chains(label))
            key = frozenset(mult.items())
            if key in seen:
                continue
            seen.add(key)
            candidates = candidate_labels(ell, dict(mult))
            assert label in candidates
            probes = tuple(sorted({c.lam for c in candidates}, key=lambda p: p.parts))
            prints = {label_fingerprint(c, probes) for c in candidates}
            assert len(prints) == len(candidates), label


def test_decompose_constructed_sum():
    rep = direct_sum(build_framed(P([4, 2]), 1), build_chain(0, 3, 1))
    out = decompose_enhanced(rep)
    assert out == Decomposition(P([4, 2]), Multipartition((P([3]),)))


def test_decompose_zero_framing_vector():
    rep = direct_sum(build_framed(P([]), 1), build_chain(0, 3, 1))
    out = decompose_enhanced(rep)
    assert out.framed_part == P([]) and out.plain_parts[0] == P([3])


def test_decompose_unframed_input():
    rep = direct_sum(build_chain(0, 2, 2), build_chain(1, 1, 2))
    out = decompose_enhanced(rep)
    assert out.framed_part is None
    assert [c.parts for c in out.plain_parts] == [(2,), (1,)]


def test_decompose_normal_forms_match_the_translation():
    for n in range(6):
        for bp in enumerate_bipartitions(n):
            rep = build_framed_jordan(bp.first, bp.second)
            eta, zeta = bipartition_to_label(bp.first, bp.second)
            pair = jordan_oracle.framed_jordan_type(rep.framing_vector, rep.maps[0])
            assert bipartition_to_label(pair.first, pair.second) == (eta, zeta)
            out = decompose_enhanced(rep)
            assert out.framed_part == eta
            assert out.plain_parts[0] == zeta


def test_decompose_rejects_non_nilpotent():
    from nilquiver import QuiverRep

    rep = QuiverRep(
        1,
        DimensionVector(1, (1,)),
        (RationalMatrix.identity(1),),
        (Fraction(1),),
    )
    with pytest.raises(ValueError):
        decompose_enhanced(rep)
    # two vertices: a simple at vertex 0 beside a cycle that is an isomorphism
    maps = (RationalMatrix(((1, 0),), 2), RationalMatrix(((1,), (0,)), 1))
    rep = QuiverRep(2, DimensionVector(1, (2, 1)), maps, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError, match="cycle"):
        decompose_enhanced(rep)


def test_decompose_refuses_a_wrong_certificate(monkeypatch, tmp_path, capsys):
    # a label whose forward invariants miss the input's is an internal error
    import json

    from nilquiver import decomposer
    from nilquiver.cli import main

    label = OrbitLabel(P([2]), Multipartition((P([1]),)))
    rep = build_label_rep(label)
    other = _label_invariants(OrbitLabel(P([1]), Multipartition((P([1, 1]),))))
    monkeypatch.setattr(decomposer, "_label_invariants", lambda _: other)
    with pytest.raises(AssertionError):
        decompose_enhanced(rep)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    assert main(["decompose", "--input", str(path)]) == 1
    assert "internal error" in capsys.readouterr().err


def test_label_of_chains_inverts_the_invariants():
    # the closed form maps the chains of M and M/<v> of every label back to
    # that label, with no linear algebra
    cones = [(1, n) for n in range(11)] + [(2, n) for n in range(7)]
    cones += [(3, n) for n in range(5)] + [(4, n) for n in range(4)] + [(5, 2), (6, 2)]
    for ell, n in cones:
        for label in enumerate_orbit_labels(n, ell):
            plain, quotient = _label_invariants(label)
            assert _label_of_chains(ell, plain, quotient) == label


def test_label_of_chains_rejects_chains_that_fit_no_partition():
    # the checking FrobeniusPartition constructor is the certificate here:
    # two framed chains of length 2 and one glued chain of length 1 at
    # ell = 1 pair to the arm -1
    plain, quotient = Counter({(0, 2): 2}), Counter({(0, 1): 1})
    with pytest.raises(AssertionError, match="fit no partition"):
        _label_of_chains(1, plain, quotient)


def test_decompose_agrees_with_the_fingerprint_oracle():
    # disguised labels of the cyclic cones, each decomposed by both routes
    rng = random.Random(31)
    for ell, n in [(2, 4), (2, 5), (3, 3), (4, 2), (4, 3)]:
        labels = enumerate_orbit_labels(n, ell)
        for label in labels[:: max(1, len(labels) // 8)]:
            rep = random_base_change(build_label_rep(label), rng)
            assert decompose_enhanced(rep).label() == fingerprint_decompose(rep) == label


def test_decompose_disguised_dim_22():
    # one marked box beside six Jordan blocks of distinct sizes: the
    # candidate route would enumerate 63 candidates here
    label = OrbitLabel(P([1]), Multipartition((P([6, 5, 4, 3, 2, 1]),)))
    rep = random_base_change(build_label_rep(label), random.Random(22))
    assert rep.dims.main == (22,)
    assert decompose_enhanced(rep).label() == label


def test_decompose_roundtrip_on_all_small_labels():
    for n, ell in [(1, 2), (2, 2), (1, 3)]:
        for label in enumerate_orbit_labels(n, ell):
            rep = build_label_rep(label)
            assert decompose_enhanced(rep).label() == label


def test_decompose_after_base_change():
    rng = random.Random(77)
    for label in enumerate_orbit_labels(2, 2):
        rep = random_base_change(build_label_rep(label), rng)
        assert decompose_enhanced(rep).label() == label


def test_decompose_identity_on_all_labels_after_base_change():
    rng = random.Random(101)
    pairs = [(3, 1), (4, 1), (5, 1), (1, 2), (1, 3), (2, 3)]
    for n, ell in pairs:
        for label in enumerate_orbit_labels(n, ell):
            rep = random_base_change(build_label_rep(label), rng)
            assert decompose_enhanced(rep).label() == label


RESCALE_LABELS = [
    label
    for n, ell in [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
    for label in enumerate_orbit_labels(n, ell)
]
NON_UNIT = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
    lambda q: q not in (-1, 0, 1)
)


def rescaled(rep, factors):
    """Every arrow and then the framing vector scaled by its own factor."""
    maps = tuple(
        RationalMatrix(tuple(tuple(c * x for x in row) for row in m.rows), m.ncols)
        for m, c in zip(rep.maps, factors)
    )
    framing = tuple(factors[-1] * x for x in rep.framing_vector)
    return QuiverRep(rep.ell, rep.dims, maps, framing)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(label=st.sampled_from(RESCALE_LABELS), seed=st.integers(0, 2**16), data=st.data())
def test_decompose_survives_rational_rescaling(label, seed, data):
    # scaling an arrow or the framing vector by a nonzero rational keeps the
    # orbit: in a chain basis it is undone by rescaling each chain's vectors
    rep = random_base_change(build_label_rep(label), random.Random(seed))
    factors = data.draw(st.lists(NON_UNIT, min_size=label.ell + 1, max_size=label.ell + 1))
    scaled = rescaled(rep, factors)
    assert decompose_enhanced(scaled).label() == label
    if label.ell == 1:
        pair = jordan_oracle.framed_jordan_type(scaled.framing_vector, scaled.maps[0])
        eta, zeta = bipartition_to_label(pair.first, pair.second)
        assert OrbitLabel(eta, Multipartition((zeta,))) == label


def assert_rank_tables_match_the_oracle(rep):
    plain, quotient = _rank_tables(rep, _krylov_spans(rep))
    want = path_ranks(rep)
    for i in range(rep.ell):
        for length in range(rep.dims.total + 1):
            got = tuple(row[i][length] if length < len(row[i]) else 0 for row in (plain, quotient))
            assert got == want.get((i, length), (0, 0)), (i, length)


# the cones of the rank-table check; a cone of 80 labels or more is sampled
# with an even stride, 40 to 80 of its labels (all 13,158 take minutes)
RANK_CONES = [(1, n) for n in range(9)] + [(2, n) for n in range(6)]
RANK_CONES += [(3, n) for n in range(5)] + [(4, n) for n in range(4)]


@pytest.mark.parametrize("ell, n", RANK_CONES)
def test_rank_tables_match_the_two_elimination_route(ell, n):
    # one elimination of [P(i, L) | K] per path step gives the same ranks of
    # M and M/<v> as ranking P(i, L) and [P(i, L) | K] apart
    rng = random.Random(1000 * ell + n)
    labels = enumerate_orbit_labels(n, ell)
    for label in labels[:: max(1, len(labels) // 40)]:
        rep = build_label_rep(label)
        factors = [Fraction(rng.choice((-3, -2, 2, 3, 5)), rng.choice((1, 2, 7))) for _ in range(ell + 1)]
        assert_rank_tables_match_the_oracle(rescaled(rep, factors))
        assert_rank_tables_match_the_oracle(random_base_change(rep, rng))


def test_rank_tables_carry_only_an_image_basis(monkeypatch):
    # the next arrow is applied to r(i, L) basis columns of P(i, L), not to
    # all of its columns: on label representatives and disguised inputs of
    # the cyclic-shared cones, one product per unit of path rank
    calls = [0]
    apply = RationalMatrix.apply

    def counted(self, vec):
        calls[0] += 1
        return apply(self, vec)

    monkeypatch.setattr(RationalMatrix, "apply", counted)
    rng = random.Random(13)
    for ell, n in [(2, 4), (2, 5), (3, 3), (4, 2), (4, 3)]:
        labels = enumerate_orbit_labels(n, ell)
        for label in labels[:: max(1, len(labels) // 6)]:
            plain_rep = build_label_rep(label)
            for rep in (plain_rep, random_base_change(plain_rep, rng)):
                spans = _krylov_spans(rep)
                calls[0] = 0
                plain, _ = _rank_tables(rep, spans)
                assert calls[0] == sum(sum(row[1:]) for row in plain), label


def test_non_nilpotent_cycle_is_reported_after_the_basis_shrinks(tmp_path, capsys):
    # ell = 3: a chain e0 -> e1 -> e2 -> 0 framed at e0 beside the invertible
    # cycle f0 -> f1 -> f2 -> f0; the chain's column leaves the basis at
    # length 3, the cycle's survives all 6 arrows
    import json

    from nilquiver.cli import main

    maps = (
        RationalMatrix(((1, 0), (0, 2)), 2),
        RationalMatrix(((1, 0), (0, Fraction(1, 3))), 2),
        RationalMatrix(((0, 0), (0, 5)), 2),
    )
    rep = QuiverRep(3, DimensionVector(1, (2, 2, 2)), maps, (Fraction(1), Fraction(0)))
    message = "composite of 6 arrows from vertex 0 has rank 1"
    with pytest.raises(ValueError, match=message):
        decompose_enhanced(rep)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    assert main(["decompose", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_one_vertex_multiplicities_agree_with_jordan_type():
    # two independent rank recipes: telescoping path ranks vs power ranks
    rng = random.Random(13)
    for blocks in [[3, 1], [4, 2], [2, 2, 1], [5]]:
        x = jordan_matrix(blocks)
        g = random_invertible(x.nrows, rng)
        moved = g @ x @ g.inverse()
        from nilquiver import DimensionVector as DV
        from nilquiver import QuiverRep

        rep = QuiverRep(1, DV(0, (x.nrows,)), (moved,), ())
        assert decompose_enhanced(rep).plain_parts[0] == jordan_type(moved) == P(blocks)


def test_methods_agree_on_one_vertex_inputs():
    rng = random.Random(5)
    for n in range(5):
        for bp in enumerate_bipartitions(n):
            rep = random_base_change(build_framed_jordan(bp.first, bp.second), rng)
            pair = jordan_oracle.framed_jordan_type(rep.framing_vector, rep.maps[0])
            eta, zeta = bipartition_to_label(pair.first, pair.second)
            a = Decomposition(eta, Multipartition((zeta,)))
            b = decompose_enhanced(rep)
            assert a == b


def test_hom_fingerprint_separates_labels():
    for n, ell in [(1, 2), (2, 2), (1, 3)]:
        labels = enumerate_orbit_labels(n, ell)
        prints = {hom_fingerprint(build_label_rep(label)) for label in labels}
        assert len(prints) == len(labels)


def test_isomorphic():
    a = build_framed(P([2, 1]), 2)
    rng = random.Random(2)
    assert isomorphic(a, random_base_change(a, rng))
    assert not isomorphic(a, build_framed(P([1, 1, 1]), 2))
    u = build_chain(0, 2, 2)
    assert isomorphic(u, random_base_change(u, rng))
    assert not isomorphic(u, build_chain(1, 2, 2))


def test_decompose_striped_oracle_small():
    for ell in (1, 2):
        for main in itertools.product(range(2), repeat=ell):
            for s in enumerate_striped(ell, DimensionVector(0, main)):
                got = decompose_enhanced(build_striped(s)).label()
                assert got == striped_label(s)
