import collections
import itertools
import json
import random
import time

import pytest
import translation_oracle
from enumeration_oracle import enumerate_bipartitions, fill_with_chains, striped_bipartitions
from removal_oracle import bipartition_to_label as greedy_label
from removal_oracle import removable_rows, removable_rows_by_pairs

from nilquiver import (
    CircleDiagram,
    DimensionVector,
    Multipartition,
    OrbitLabel,
    Partition,
    StripedBipartition,
    bipartition_as_striped,
    bipartition_to_label,
    column_residue,
    delta,
    diagrams_of_label,
    enumerate_orbit_labels,
    enumerate_partitions,
    enumerate_striped,
    frobenius_diagram_of_partition,
    label_of_diagrams,
    label_to_bipartition,
    removable_rows_cyclic,
    signature,
    striped_from_label,
    striped_label,
    striped_to_diagrams,
)

P = Partition

TRANSLATION_TABLE_N3 = [
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

BIG_ROW_DATA = dict(
    lam=(16, 14, 13, 11, 9, 6, 5, 5, 2),
    eps=(0, 2, 0, 1, 3, 0, 2, 2, 0),
    marks=(8, 4, 5, 4, 0, 2, 3, 3, -2),
)


def big_striped():
    return StripedBipartition(
        4, P(BIG_ROW_DATA["lam"]), BIG_ROW_DATA["eps"], BIG_ROW_DATA["marks"]
    )


def test_removable_rows_examples():
    assert removable_rows(P([4, 4, 3, 1]), P([3, 2, 2])) == frozenset({1, 3})
    assert removable_rows(P([2, 1]), P([])) == frozenset({2})
    assert removable_rows(P([]), P([3])) == frozenset({1})


def test_partition_rejects_increasing_parts():
    with pytest.raises(ValueError, match="weakly decreasing"):
        P([0, 3])


def test_translation_table_n3():
    for (mu, nu), (eta, zeta) in TRANSLATION_TABLE_N3:
        assert bipartition_to_label(P(mu), P(nu)) == (P(eta), P(zeta))


def test_translation_big_example():
    eta, zeta = bipartition_to_label(P([4, 4, 3, 1]), P([3, 2, 2]))
    assert zeta == P([7, 5])
    assert eta == P([3, 2, 1, 1])
    assert eta.size + zeta.size == 19


def test_translation_size_conservation_and_bijectivity():
    for n in range(9):
        bps = enumerate_bipartitions(n)
        images = set()
        for bp in bps:
            eta, zeta = bipartition_to_label(bp.first, bp.second)
            assert eta.size + zeta.size == n
            images.add((eta, zeta))
        # injective, hence bijective onto pairs of total size n
        assert len(images) == len(bps)


def test_inverse_translation():
    assert label_to_bipartition(P([1, 1]), P([1])) == (P([2, 1]), P([]))
    assert label_to_bipartition(P([]), P([3])) == (P([]), P([3]))
    assert label_to_bipartition(P([2]), P([1])) == (P([1]), P([1, 1]))
    # the translation is a bijection, so inverting the forward map succeeds
    for n in range(10):
        for bp in enumerate_bipartitions(n):
            eta, zeta = bipartition_to_label(bp.first, bp.second)
            assert label_to_bipartition(eta, zeta) == (bp.first, bp.second)


def test_inverse_translation_rebuilds_the_certified_rows():
    # label_to_bipartition returns the rows that striped_from_label has
    # certified, so it needs no second certificate of its own
    for n in range(11):
        for label in enumerate_orbit_labels(n, 1):
            pair = label_to_bipartition(label.lam, label.nu[0])
            assert bipartition_as_striped(*pair) == striped_from_label(label)


def test_striped_validation():
    with pytest.raises(ValueError):  # mark outside block 0
        StripedBipartition(2, P([2]), (1,), (2,))
    with pytest.raises(ValueError):  # marking below -ell
        StripedBipartition(2, P([4]), (0,), (-2,))
    with pytest.raises(ValueError):  # ordering violated
        StripedBipartition(1, P([2, 2]), (0, 0), (0, 2))
    s = StripedBipartition(2, P([2]), (0,), (2,))
    assert s.mu == (0,)


def test_signature_examples():
    assert signature(P([1]), (0,), 2).main == (1, 0)
    assert signature(P([3]), (1,), 2).main == (1, 2)
    s = big_striped()
    # independent box-count oracle over the coloured diagram
    counts = [0] * 4
    for part, colour in zip(BIG_ROW_DATA["lam"], BIG_ROW_DATA["eps"]):
        for j in range(1, part + 1):
            counts[(colour + part - j) % 4] += 1
    assert s.signature().main == tuple(counts) == (20, 20, 21, 20)


def test_removable_rows_cyclic_big_example():
    assert removable_rows_cyclic(big_striped()) == frozenset({2, 3, 5, 6, 8, 9})


def test_removable_rows_cyclic_trivial_cases():
    # single marked row: nothing to remove
    s = StripedBipartition(2, P([2]), (0,), (2,))
    assert removable_rows_cyclic(s) == frozenset()
    # unmarked row is removable
    s = StripedBipartition(2, P([2]), (0,), (0,))
    assert removable_rows_cyclic(s) == frozenset({1})


def test_removable_rows_cyclic_matches_the_pairwise_scan():
    # every striped bipartition of the small cones, then seeded random
    # striped rows of at most three lengths, so that kinds repeat among
    # rows of other kinds, then rows of any colours and markings, which the
    # rule reads as well
    for n, ell in [(4, 1), (3, 2), (2, 3), (2, 4)]:
        for s in enumerate_striped(ell, delta(ell, n)):
            assert removable_rows_cyclic(s) == removable_rows_by_pairs(s), s
    rng = random.Random(7)
    repeated = 0
    for _ in range(4000):
        ell = rng.randint(1, 3)
        lam = P(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 8))), reverse=True))
        nu = tuple(rng.randint(1 - ell, p) for p in lam.parts)
        eps = tuple((n - p) % ell for p, n in zip(lam.parts, nu))
        try:
            s = StripedBipartition(ell, lam, eps, nu)
        except ValueError:
            continue
        kinds = len(set(zip(lam.parts, eps)))
        repeated += 1 < kinds < len(lam)
        assert removable_rows_cyclic(s) == removable_rows_by_pairs(s), s
    assert repeated > 100
    for _ in range(2000):
        ell = rng.randint(1, 3)
        lam = P(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 8))), reverse=True))
        eps = tuple(rng.randrange(ell) for _ in lam.parts)
        nu = tuple(rng.randint(1 - ell, p) for p in lam.parts)
        s = StripedBipartition._built(ell, lam, eps, nu)
        assert removable_rows_cyclic(s) == removable_rows_by_pairs(s), s


def test_cyclic_shadow_of_one_vertex_translation():
    # the ell = 1 striped translation agrees with the greedy one-vertex rule
    for n in range(13):
        for bp in enumerate_bipartitions(n):
            assert bipartition_to_label(bp.first, bp.second) == greedy_label(bp.first, bp.second)


def test_striped_to_diagrams_big_example():
    frob, circ = striped_to_diagrams(big_striped())
    assert frob.circles == ((16, 8), (11, 7), (5, 2))
    assert [s for s, _, _ in frob.chains()] == [0, 1, 2]
    # marked positions counted from the end of each chain
    assert tuple(p - o for p, o in frob.circles) == (8, 4, 3)
    assert circ.circles == CircleDiagram(
        4, ((2, 14), (0, 13), (3, 9), (0, 6), (2, 5), (0, 2))
    ).circles
    label = label_of_diagrams(frob, circ)
    assert label.lam == P([9, 9, 5, 3, 3, 1, 1, 1])


def test_striped_to_diagrams_single_fully_marked_row():
    for ell in (1, 2, 3):
        s = StripedBipartition(ell, P([ell]), (0,), (ell,))
        frob, circ = striped_to_diagrams(s)
        assert circ.circles == ()
        assert frob.circles == ((ell, 0),)
        # one-column partition of weight one
        assert label_of_diagrams(frob, circ).lam == P([1] * ell)


def test_label_of_diagrams_examples():
    frob = frobenius_diagram_of_partition(P([6, 4, 4, 2]), 4)
    circ = CircleDiagram(4, ((1, 3), (0, 2)))
    label = label_of_diagrams(frob, circ)
    assert label.lam == P([6, 4, 4, 2])
    assert [c.parts for c in label.nu] == [(2,), (3,), (), ()]
    # single marked vertex and no plain circles
    frob = frobenius_diagram_of_partition(P([1]), 3)
    label = label_of_diagrams(frob, CircleDiagram(3, ()))
    assert label.lam == P([1]) and label.nu.size == 0


def test_label_diagram_roundtrip():
    for label in enumerate_orbit_labels(2, 2):
        frob, circ = diagrams_of_label(label)
        assert label_of_diagrams(frob, circ) == label


def test_enumerate_striped_counts():
    # one-vertex case: bipartitions
    assert len(enumerate_striped(1, DimensionVector(0, (3,)))) == 10
    assert len(enumerate_striped(2, DimensionVector(0, (0, 0)))) == 1
    # enumerate_striped is the image of the labels, so count it against the
    # oracle's own enumeration
    for n, ell in [(1, 2), (2, 2), (1, 3), (3, 1), (4, 1)]:
        striped = enumerate_striped(ell, delta(ell, n))
        assert len(striped) == len(striped_bipartitions(ell, delta(ell, n)))


def test_enumerate_striped_matches_the_partition_walk():
    # the oracle walks every partition of the total and colours its rows;
    # 180 signatures, 7,424 bipartitions
    signatures = [
        (ell, main)
        for ell, top in [(1, 9), (2, 4), (3, 3), (4, 2)]
        for main in itertools.product(range(top + 1), repeat=ell)
    ]
    signatures += [(ell, (n,) * ell) for ell, n in [(4, 3), (3, 4), (5, 2), (6, 2)]]
    for ell, main in signatures:
        xi = DimensionVector(0, main)
        assert enumerate_striped(ell, xi) == striped_bipartitions(ell, xi), (ell, main)


@pytest.mark.parametrize("ell,n", [(1, 3), (2, 2), (3, 2), (4, 1), (2, 3)])
def test_enumerate_striped_cap_bounds_the_output(ell, n):
    everything = enumerate_striped(ell, delta(ell, n))
    assert enumerate_striped(ell, delta(ell, n), max_count=len(everything)) == everything
    with pytest.raises(ValueError, match="exceeds the cap"):
        enumerate_striped(ell, delta(ell, n), max_count=len(everything) - 1)


def test_enumerate_striped_cap_counts_bipartitions_not_partitions():
    # three rows of length 1 at vertex 0: all unmarked or all marked
    found = enumerate_striped(2, DimensionVector(0, (3, 0)), max_count=2)
    assert [s.nu for s in found] == [(-1, -1, -1), (1, 1, 1)]


def test_enumerate_striped_skips_the_partitions_of_the_total():
    # 61 rows of length 1 at vertex 0: still 2 bipartitions, though 61 has
    # 1,121,505 partitions
    start = time.perf_counter()
    found = enumerate_striped(2, DimensionVector(0, (61, 0)))
    assert time.perf_counter() - start < 1
    assert [s.nu for s in found] == [(-1,) * 61, (1,) * 61]
    with pytest.raises(ValueError, match="exceeds the cap of 0"):
        enumerate_striped(2, DimensionVector(0, (61, 0)), max_count=0)


def test_enumerate_striped_over_the_cap_does_bounded_work(monkeypatch):
    # the labels are counted, not listed, past the cap, so the work is
    # bounded by the cap, not by the 89,134 partitions of 45
    from nilquiver import residues

    calls = []
    real = residues.chain_fillable

    def counted(remaining, vertex):
        calls.append(vertex)
        return real(remaining, vertex)

    monkeypatch.setattr(residues, "chain_fillable", counted)
    with pytest.raises(ValueError, match="cap of 1000$"):
        enumerate_striped(1, DimensionVector(0, (45,)), max_count=1000)
    assert 0 < len(calls) < 10_000


def test_striped_label_is_a_bijection_at_fixed_signature():
    # on the oracle's striped bipartitions: enumerate_striped is built from
    # the labels, so its own list would make this circular
    for ell in (1, 2):
        for main in itertools.product(range(3), repeat=ell):
            xi = DimensionVector(0, main)
            striped = striped_bipartitions(ell, xi)
            labels = {striped_label(s) for s in striped}
            assert len(labels) == len(striped)
            for label in labels:
                assert label.dimension_vector().main == main
            # independent census of the labels with this dimension vector
            total = sum(main)
            count = 0
            for m in range(total + 1):
                for lam in enumerate_partitions(m):
                    cr = column_residue(lam, ell)
                    if any(a < b for a, b in zip(main, cr.main)):
                        continue
                    rest = tuple(a - b for a, b in zip(main, cr.main))
                    count += sum(1 for _ in fill_with_chains(rest, 0, ell))
            assert count == len(labels)


def test_striped_from_label_roundtrip():
    for n, ell in [(1, 2), (2, 2)]:
        for label in enumerate_orbit_labels(n, ell):
            s = striped_from_label(label)
            assert striped_label(s) == label


def searched_preimages(ell, n):
    """Oracle for ``striped_from_label``: the fibre search, run for a whole
    cone at once over the independent ``striped_bipartitions``, giving each
    label's first striped bipartition in enumeration order."""
    first = {}
    for s in striped_bipartitions(ell, delta(ell, n)):
        first.setdefault(striped_label(s), s)
    return first


@pytest.mark.parametrize(
    "ell,n",
    [(1, n) for n in range(9)]
    + [(2, n) for n in range(5)]
    + [(3, n) for n in range(4)]
    + [(4, n) for n in range(3)]
    + [(5, 2)],
)
def test_striped_from_label_matches_the_fibre_search(ell, n):
    preimages = searched_preimages(ell, n)
    assert set(preimages) == set(enumerate_orbit_labels(n, ell))
    for label, s in preimages.items():
        assert striped_from_label(label) == s


def test_striped_from_label_big_example():
    s = big_striped()
    assert striped_from_label(striped_label(s)) == s


def translate_to_johnson(label, tmp_path, capsys):
    """Exit code and stderr of ``translate --from label --to johnson``."""
    from nilquiver.cli import main

    path = tmp_path / "label.json"
    path.write_text(json.dumps(label.to_json()))
    argv = ["translate", "--from", "label", "--to", "johnson", "--input", str(path)]
    code = main(argv)
    return code, capsys.readouterr().err


def test_striped_from_label_refuses_a_wrong_certificate(monkeypatch, tmp_path, capsys):
    # the forward map the certificate calls names another label
    from nilquiver import orbit_maps

    label = enumerate_orbit_labels(2, 2)[5]
    wrong = OrbitLabel(P([9]), Multipartition.empty(2))
    monkeypatch.setattr(orbit_maps, "striped_label", lambda s: wrong)
    with pytest.raises(AssertionError, match="map to"):
        striped_from_label(label)
    code, err = translate_to_johnson(label, tmp_path, capsys)
    assert code == 1 and "internal error" in err


@pytest.mark.parametrize(
    "label, message",
    [
        # one plain circle: its row stays removed, so the diagrams still
        # match and only the striped conditions see the marking below -ell
        (OrbitLabel(P([]), Multipartition((P([1]), P([]), P([])))), "not striped"),
        # one marked circle: its row loses its mark, so the rows stay
        # striped and only the forward map sees it
        (OrbitLabel(P([1]), Multipartition((P([]),))), "map to"),
        (OrbitLabel(P([2, 1]), Multipartition((P([1]), P([]), P([])))), None),
    ],
    ids=["not-striped", "maps-elsewhere", "three-rows"],
)
def test_striped_from_label_refuses_a_corrupted_row(label, message, monkeypatch, tmp_path, capsys):
    # the first row's marking drops by ell, which keeps its mark in block 0
    from nilquiver import orbit_maps

    real = orbit_maps._rows_of_diagrams

    def corrupted(frob, circ):
        rows = real(frob, circ)
        length, colour, marking = rows[0]
        rows[0] = (length, colour, marking - frob.ell)
        return rows

    monkeypatch.setattr(orbit_maps, "_rows_of_diagrams", corrupted)
    with pytest.raises(AssertionError, match=message):
        striped_from_label(label)
    code, err = translate_to_johnson(label, tmp_path, capsys)
    assert code == 1 and err.startswith("internal error: ")
    monkeypatch.undo()
    assert striped_label(striped_from_label(label)) == label


CONES = [(1, 8), (2, 4), (3, 3), (4, 2), (4, 3)]


@pytest.mark.parametrize("ell,n", CONES)
def test_translations_match_the_triple_checked_route(ell, n):
    labels = enumerate_orbit_labels(n, ell)
    striped = [translation_oracle.striped_from_label(label) for label in labels]
    assert [striped_from_label(label) for label in labels] == striped
    assert [striped_label(s) for s in striped] == labels
    assert [translation_oracle.striped_label(s) for s in striped] == labels
    want = sorted(striped, key=lambda s: (s.lam.parts, s.epsilon, s.nu))
    assert enumerate_striped(ell, delta(ell, n)) == want
    if ell == 1:
        pairs = [translation_oracle.label_to_bipartition(lbl.lam, lbl.nu[0]) for lbl in labels]
        assert [label_to_bipartition(lbl.lam, lbl.nu[0]) for lbl in labels] == pairs
        images = [(lbl.lam, lbl.nu[0]) for lbl in labels]
        assert [translation_oracle.bipartition_to_label(*pair) for pair in pairs] == images
        assert [bipartition_to_label(*pair) for pair in pairs] == images


def test_enumerate_striped_checks_each_item_once(monkeypatch):
    from nilquiver import circle_diagrams, orbit_maps

    counts = collections.Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    for cls in (StripedBipartition, circle_diagrams.FrobeniusCircleDiagram, CircleDiagram):
        real_check = cls.__post_init__

        def check(self, real_check=real_check, cls=cls):
            counts[cls.__name__] += 1
            real_check(self)

        monkeypatch.setattr(cls, "__post_init__", check)
    counting(orbit_maps, "striped_label")
    counting(orbit_maps, "striped_to_diagrams")
    counting(orbit_maps, "_striped_error")
    found = enumerate_striped(3, delta(3, 3))
    assert len(found) == 796
    assert counts == {"striped_label": 796, "striped_to_diagrams": 796, "_striped_error": 796}
    # the counters do see a public constructor
    StripedBipartition.from_json(found[0].to_json(), 3)
    assert counts["StripedBipartition"] == 1 and counts["_striped_error"] == 797


def test_every_small_striped_row_sequence_matches_the_checked_route():
    # every sequence of at most three rows of length at most 3, every colour
    # and every marking in [-ell, length]: the constructor's one-pass check
    # with running minima accepts exactly what the pairwise reading
    # accepts, and on every accepted sequence, whatever its row order, the
    # unchecked forward map gives the checked route's label
    accepted = 0
    for ell in (1, 2, 3):
        for lam in (p for m in range(10) for p in enumerate_partitions(m)):
            if len(lam) > 3 or lam[0] > 3:
                continue
            options = [
                [(e, n) for e in range(ell) for n in range(-ell, p + 1)] for p in lam.parts
            ]
            for rows in itertools.product(*options):
                eps = tuple(e for e, _ in rows)
                nu = tuple(n for _, n in rows)
                mu = [p - n for p, n in zip(lam.parts, nu)]
                want = (
                    all((e + m) % ell == 0 for e, m in zip(eps, mu))
                    and all(n > -ell for n in nu)
                    and translation_oracle.striped_ordering_holds(ell, lam.parts, nu)
                )
                try:
                    s = StripedBipartition(ell, lam, eps, nu)
                except ValueError:
                    assert not want, (ell, lam, eps, nu)
                    continue
                assert want, (ell, lam, eps, nu)
                assert striped_label(s) == translation_oracle.striped_label(s), s
                accepted += 1
    assert accepted == 1314


def test_striped_json_roundtrip():
    s = big_striped()
    assert StripedBipartition.from_json(s.to_json(), 4) == s
