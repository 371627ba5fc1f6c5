"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``); a
failing criterion raises, so the line and the assertion always agree.
"""

import itertools
import random
import time
from fractions import Fraction

from nilquiver import (
    CircleDiagram,
    DimensionVector,
    Multipartition,
    OrbitLabel,
    Partition,
    QuiverRep,
    StripedBipartition,
    bipartition_to_label,
    build_framed,
    build_framed_jordan,
    build_label_rep,
    build_striped,
    chain_multiplicities,
    classify,
    column_residue,
    decompose_enhanced,
    delta,
    ell_quotient_core,
    enumerate_orbit_labels,
    enumerate_partitions,
    enumerate_striped,
    framed_jordan_type,
    isomorphic,
    random_base_change,
    removable_rows_cyclic,
    striped_label,
    striped_to_diagrams,
    tits_form,
    wildness_witness,
)
from nilquiver.linalg import RationalMatrix
from nilquiver.rep_type import CoveringWindow, RepType

import jordan_oracle
from enumeration_oracle import enumerate_bipartitions, enumerate_multipartitions
from fingerprint_oracle import hom_fingerprint

P = Partition


def criterion(number, description):
    def decorate(check):
        def wrapper():
            try:
                check()
            except BaseException:
                print(f"FAIL {number:>2}. {description}")
                raise
            print(f"PASS {number:>2}. {description}")

        wrapper.__name__ = check.__name__
        return wrapper

    return decorate


@criterion(1, "Frobenius coordinates: worked example and full roundtrip to n=20")
def test_01_frobenius_roundtrip():
    start = time.time()
    f = P([7, 5, 3, 2, 1]).frobenius()
    assert f.legs == (4, 2, 0) and f.arms == (6, 3, 0)
    assert f.hook_sizes() == P([11, 6, 1])
    cases = 0
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert lam.frobenius().partition() == lam
            cases += 1
    assert cases > 1000
    assert time.time() - start < 1.0


@criterion(2, "the ten-row translation table at n=3 is reproduced exactly")
def test_02_translation_table():
    table = [
        (([3], []), ([1, 1, 1], [])),
        (([2, 1], []), ([1, 1], [1])),
        (([1, 1, 1], []), ([1], [1, 1])),
        (([2], [1]), ([2, 1], [])),
        (([1, 1], [1]), ([1], [2])),
        (([1], [2]), ([3], [])),
        (([1], [1, 1]), ([2], [1])),
        (([], [3]), ([], [3])),
        (([], [2, 1]), ([], [2, 1])),
        (([], [1, 1, 1]), ([], [1, 1, 1])),
    ]
    assert len(table) == 10
    for (mu, nu), (eta, zeta) in table:
        assert bipartition_to_label(P(mu), P(nu)) == (P(eta), P(zeta))


#: the eleven framed indecomposables of total dimension six at one vertex:
#: (jordan blocks, marked 1-based coordinates, legs, arms, partition)
DIMENSION_SIX_TABLE = [
    ((6,), (1,), (0,), (5,), (6,)),
    ((6,), (2,), (1,), (4,), (5, 1)),
    ((6,), (3,), (2,), (3,), (4, 1, 1)),
    ((6,), (4,), (3,), (2,), (3, 1, 1, 1)),
    ((6,), (5,), (4,), (1,), (2, 1, 1, 1, 1)),
    ((6,), (6,), (5,), (0,), (1, 1, 1, 1, 1, 1)),
    ((5, 1), (2, 6), (1, 0), (3, 0), (4, 2)),
    ((5, 1), (3, 6), (2, 0), (2, 0), (3, 2, 1)),
    ((5, 1), (4, 6), (3, 0), (1, 0), (2, 2, 1, 1)),
    ((4, 2), (2, 5), (1, 0), (2, 1), (3, 3)),
    ((4, 2), (3, 6), (2, 1), (1, 0), (2, 2, 2)),
]


def _table_row_rep(blocks, marked):
    n = sum(blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for j in range(1, b):
            rows[offset + j - 1][offset + j] = Fraction(1)
        offset += b
    vector = tuple(Fraction(1) if i + 1 in marked else Fraction(0) for i in range(n))
    x = RationalMatrix(tuple(tuple(r) for r in rows), n)
    return QuiverRep(1, DimensionVector(1, (n,)), (x,), vector)


@criterion(3, "all eleven framed indecomposables of dimension six check out")
def test_03_dimension_six_indecomposables():
    start = time.time()
    assert len(DIMENSION_SIX_TABLE) == 11
    for blocks, marked, legs, arms, partition in DIMENSION_SIX_TABLE:
        row_rep = _table_row_rep(blocks, marked)
        lam = P(partition)
        assert lam.frobenius().legs == legs and lam.frobenius().arms == arms
        assert isomorphic(build_framed(lam, 1), row_rep)
        pair = framed_jordan_type(row_rep.framing_vector, row_rep.maps[0])
        assert pair.first == P([a + 1 for a in legs])
        assert pair.second == P(arms)
    assert time.time() - start < 1.0


@criterion(4, "decomposition equals the translation on all bipartitions to n=5")
def test_04_decomposition_oracle_one_vertex():
    start = time.time()
    cases = 0
    at_five = 0
    for n in range(6):
        for bp in enumerate_bipartitions(n):
            rep = build_framed_jordan(bp.first, bp.second)
            eta, zeta = bipartition_to_label(bp.first, bp.second)
            want = (eta, Multipartition((zeta,)))
            pair = jordan_oracle.framed_jordan_type(rep.framing_vector, rep.maps[0])
            oracle = bipartition_to_label(pair.first, pair.second)
            assert (oracle[0], Multipartition((oracle[1],))) == want
            out = decompose_enhanced(rep)
            assert (out.framed_part, out.plain_parts) == want
            cases += 1
            at_five += n == 5
    assert at_five == 36
    assert time.time() - start < 10.0


@criterion(5, "the big one-vertex translation example conserves its 19 boxes")
def test_05_big_translation_example():
    eta, zeta = bipartition_to_label(P([4, 4, 3, 1]), P([3, 2, 2]))
    assert zeta == P([7, 5])
    assert eta == P([3, 2, 1, 1])
    assert eta.size + zeta.size == 19


@criterion(6, "the big striped example reproduces its removable rows and circles")
def test_06_big_striped_example():
    s = StripedBipartition(
        4,
        P([16, 14, 13, 11, 9, 6, 5, 5, 2]),
        (0, 2, 0, 1, 3, 0, 2, 2, 0),
        (8, 4, 5, 4, 0, 2, 3, 3, -2),
    )
    assert removable_rows_cyclic(s) == frozenset({2, 3, 5, 6, 8, 9})
    frob, circ = striped_to_diagrams(s)
    assert [p for p, _ in frob.circles] == [16, 11, 5]
    # marked positions counted from the end of each chain, 1-based
    assert [p - o for p, o in frob.circles] == [8, 4, 3]
    assert [s for s, _, _ in frob.chains()] == [0, 1, 2]
    assert circ == CircleDiagram(4, ((2, 14), (0, 13), (3, 9), (0, 6), (2, 5), (0, 2)))


@criterion(7, "decomposition equals the striped translation for ell <= 3")
def test_07_decomposition_oracle_cyclic():
    start = time.time()
    cases = 0
    for ell in (1, 2, 3):
        for main in itertools.product(range(3), repeat=ell):
            for s in enumerate_striped(ell, DimensionVector(0, main)):
                want = striped_label(s)
                got = decompose_enhanced(build_striped(s)).label()
                assert got == want, (s, got, want)
                cases += 1
    assert cases > 400
    assert time.time() - start < 60.0


@criterion(8, "label and striped counts agree; representatives are pairwise distinct")
def test_08_label_counts_and_fingerprints():
    expected_bipartition_counts = {3: 10, 4: 20, 5: 36}
    for n, ell in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 1), (4, 1), (5, 1)]:
        labels = enumerate_orbit_labels(n, ell)
        striped = enumerate_striped(ell, delta(ell, n))
        assert len(labels) == len(striped)
        if ell == 1:
            assert len(labels) == expected_bipartition_counts[n]
            assert len(labels) == len(enumerate_bipartitions(n))
        prints = {hom_fingerprint(build_label_rep(label)) for label in labels}
        assert len(prints) == len(labels)


@criterion(9, "labels with empty chain part are the trivial-core partitions")
def test_09_trivial_core_bijection():
    for ell in (1, 2, 3, 4):
        for n in range(1, 12 // ell + 1):
            with_empty_nu = {
                label.lam
                for label in enumerate_orbit_labels(n, ell)
                if all(not c for c in label.nu)
            }
            trivial_core = {
                lam
                for lam in enumerate_partitions(n * ell)
                if ell_quotient_core(lam, ell)[0] == P([])
            }
            assert with_empty_nu == trivial_core
            quotients = {ell_quotient_core(lam, ell)[1] for lam in trivial_core}
            assert len(quotients) == len(trivial_core)
            assert len(trivial_core) == len(enumerate_multipartitions(n, ell))


@criterion(10, "wildness certificates evaluate negative; classification tables hold")
def test_10_tits_witnesses_and_classification():
    window = CoveringWindow(1, 4, 4, (1, 2, 3, 4))
    assert tits_form(window, (2, 3, 3, 2), (1, 2, 2, 1)) <= -1
    window = CoveringWindow(2, 3, 7, (2, 4, 6))
    assert tits_form(window, (1, 2, 2, 3, 2, 2, 1), (1, 1, 1)) <= -1
    window = CoveringWindow(3, 2, 8, (3, 6))
    assert tits_form(window, (1, 2, 3, 3, 3, 3, 2, 1), (1, 1)) == -1
    finite = {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)}
    tame = {(2, 2), (4, 1)}
    for ell in range(1, 11):
        for x in range(1, 11):
            kind = classify(ell, x)
            assert (kind is RepType.FINITE) == ((ell, x) in finite)
            assert (kind is RepType.TAME) == ((ell, x) in tame)
            witness = wildness_witness(ell, x)
            if kind is RepType.WILD:
                w, main, framing = witness
                assert tits_form(w, main, framing) <= -1
            else:
                assert witness is None


@criterion(11, "200 randomized base changes decompose back to their labels")
def test_11_randomized_decomposition_robustness():
    rng = random.Random(20260810)
    trials = 0
    while trials < 200:
        ell = rng.randint(1, 4)
        budget = rng.randint(1, 12)
        lam = rng.choice(enumerate_partitions(rng.randint(0, min(6, budget))))
        used = column_residue(lam, ell).main
        if sum(used) > budget:
            continue
        comps = [[] for _ in range(ell)]
        room = budget - sum(used)
        while room > 0 and rng.random() < 0.8:
            length = rng.randint(1, room)
            comps[rng.randrange(ell)].append(length)
            room -= length
        label = OrbitLabel(
            lam, Multipartition(tuple(P(sorted(c, reverse=True)) for c in comps))
        )
        rep = build_label_rep(label)
        moved = random_base_change(rep, rng)
        expected = {}
        f = lam.frobenius()
        for leg, arm in zip(f.legs, f.arms):
            key = ((-arm) % ell, leg + arm + 1)
            expected[key] = expected.get(key, 0) + 1
        for i, comp in enumerate(label.nu):
            for length in comp:
                expected[(i, length)] = expected.get((i, length), 0) + 1
        assert chain_multiplicities(moved) == expected
        assert decompose_enhanced(moved).label() == label
        trials += 1
    assert trials == 200
