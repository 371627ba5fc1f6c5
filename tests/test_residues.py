import itertools
import random
import time

import partition_oracle
import pytest
from enumeration_oracle import (
    admissible_partitions,
    chain_allowed,
    fill_with_chains,
    orbit_labels,
    striped_bipartitions,
)

from nilquiver import (
    DimensionVector,
    Multipartition,
    OrbitLabel,
    Partition,
    column_residue,
    delta,
    dim_framed,
    ell_quotient_core,
    enumerate_orbit_labels,
    enumerate_partitions,
    enumerate_striped,
    from_core_quotient,
    residue,
    run_vector,
    runs_vector,
    shifted_residue,
    zero_hits,
)
from nilquiver import residues
from nilquiver.residues import chain_counts, chain_fillable, cone_count


def content_counts(lam, ell):
    """Independent residue oracle: walk the boxes and bucket the contents."""
    counts = [0] * ell
    for i, p in enumerate(lam.parts, 1):
        for j in range(1, p + 1):
            counts[(j - i) % ell] += 1
    return tuple(counts)


def mp(ell, *comps):
    return Multipartition(tuple(Partition(c) for c in comps) or tuple(Partition() for _ in range(ell)))


def test_dimension_vector_basics():
    v = DimensionVector(1, (2, 0, 1))
    assert str(v) == "(1; 2,0,1)"
    assert tuple(v.main[(j - 1) % v.ell] for j in range(v.ell)) == (1, 2, 0)
    assert DimensionVector.from_json(v.to_json()) == v
    with pytest.raises(ValueError):
        DimensionVector(2, (1,))
    with pytest.raises(ValueError):
        DimensionVector(0, (1, -1))


def test_residue_examples():
    assert residue(Partition([2, 1]), 2).main == (1, 2)
    assert residue(Partition([7, 5, 3, 2, 1]), 1).main == (18,)
    assert residue(Partition([]), 3).main == (0, 0, 0)


def test_residue_matches_box_oracle_and_sums_to_size():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for ell in (1, 2, 3, 4, 5):
                r = residue(lam, ell)
                assert r.main == content_counts(lam, ell)
                assert r.total == n


def test_column_residue_is_residue_of_transpose():
    for n in range(15):
        for lam in enumerate_partitions(n):
            for ell in (1, 2, 3, 4, 5):
                assert column_residue(lam, ell) == residue(lam.transpose(), ell)


def test_column_residue_of_a_huge_part_is_read_off_the_rows():
    # negated contents: vertex v counts the boxes of content -v mod ell
    lam = Partition([10**7, 3, 1])
    assert column_residue(lam, 3).main == (3333335, 3333334, 3333335)
    for ell in (1, 2, 3, 4, 5):
        forward = residue(lam, ell).main
        assert column_residue(lam, ell).main == tuple(forward[-v % ell] for v in range(ell))
    for ell in (0, -1):
        with pytest.raises(ValueError, match="ell must be positive"):
            column_residue(lam, ell)


def test_shifted_residue_examples():
    assert shifted_residue(mp(2, (1,), ()), 2).main == (1, 0)
    assert shifted_residue(mp(2, (), (1,)), 2).main == (0, 1)
    assert shifted_residue(mp(2, (2,), (1,)), 2).main == (1, 2)


def test_shifted_residue_counts_chain_vertices():
    # each part of component i is a run starting at vertex i
    nu = mp(2, (1, 1), ())
    assert shifted_residue(nu, 2).main == (2, 0)
    nu = mp(3, (4,), (2,), (1, 1))
    want = [0, 0, 0]
    for i, parts in enumerate([(4,), (2,), (1, 1)]):
        for length in parts:
            for k in range(length):
                want[(i + k) % 3] += 1
    assert shifted_residue(nu, 3).main == tuple(want)


def test_dim_chain_examples():
    # the chain module on i, ..., i+length-1 has dimension vector run_vector
    assert run_vector(0, 3, 3) == (1, 1, 1)
    assert run_vector(2, 10, 4) == (2, 2, 3, 3)
    assert run_vector(0, 1, 3) == (1, 0, 0)
    # brute-force walk oracle
    for ell in (1, 2, 3, 4):
        for i in range(ell):
            for length in range(1, 12):
                walk = [0] * ell
                for k in range(length):
                    walk[(i + k) % ell] += 1
                assert run_vector(i, length, ell) == tuple(walk)


def test_dim_framed_examples():
    assert dim_framed(Partition([1]), 2) == DimensionVector(1, (1, 0))
    assert dim_framed(Partition([7, 5, 3, 2, 1]), 1) == DimensionVector(1, (18,))
    assert dim_framed(Partition([2, 1]), 2) == DimensionVector(1, (1, 2))


def test_zero_hits_and_chain_bound():
    assert zero_hits(2, 10, 4) == 2
    assert chain_allowed(2, 10, 4, 2)
    assert not chain_allowed(2, 10, 4, 1)
    assert chain_allowed(0, 1, 5, 1)
    for ell in (1, 2, 3):
        for x in (1, 2):
            # one extra pass through vertex 0 breaks the bound
            assert not chain_allowed(0, ell * x + 1, ell, x)


def test_orbit_label_dimension_and_json():
    label = OrbitLabel(Partition([2]), mp(2, (), (1,)))
    assert label.dimension_vector() == DimensionVector(1, (1, 2))
    assert OrbitLabel.from_json(label.to_json()) == label


def test_enumerate_orbit_labels_small():
    labels = enumerate_orbit_labels(1, 1)
    assert len(labels) == 2
    assert {str(l) for l in labels} == {"([1];([]))", "([];([1]))"}
    assert len(enumerate_orbit_labels(3, 1)) == 10
    assert len(enumerate_orbit_labels(0, 2)) == 1


def test_enumerate_orbit_labels_satisfy_the_residue_equation():
    for n, ell in [(1, 2), (2, 2), (1, 3)]:
        labels = enumerate_orbit_labels(n, ell)
        assert len(labels) == len(set(labels))
        for label in labels:
            assert label.dimension_vector().main == delta(ell, n).main
        # completeness against an independent filter over the search bound
        brute = 0
        for m in range(n * ell + 1):
            for lam in enumerate_partitions(m):
                cr = column_residue(lam, ell)
                if max(cr.main) > n:
                    continue
                need = tuple(n - c for c in cr.main)
                brute += sum(
                    1
                    for label in labels
                    if label.lam == lam and shifted_residue(label.nu, ell).main == need
                )
        assert brute == len(labels)


#: Every cone the tests enumerate whole, as (ell, n).
CONES = (
    [(1, n) for n in range(11)]
    + [(2, n) for n in range(7)]
    + [(3, n) for n in range(5)]
    + [(4, n) for n in range(4)]
    + [(5, 2), (6, 2)]
)


def test_enumerate_orbit_labels_matches_the_direct_search():
    for ell, n in CONES:
        assert enumerate_orbit_labels(n, ell) == orbit_labels(n, ell), (ell, n)


def test_knapsack_count_gives_the_known_cone_sizes():
    # ell = 1: the bipartition numbers (Achar and Henderson, Adv. Math. 219, 2008)
    assert [cone_count(n, 1) for n in range(9)] == [1, 2, 5, 10, 20, 36, 65, 110, 185]
    assert [cone_count(n, 2) for n in range(7)] == [1, 6, 28, 104, 342, 1016, 2808]
    assert [cone_count(n, 3) for n in range(5)] == [1, 14, 122, 796, 4308]
    assert [cone_count(n, 4) for n in range(4)] == [1, 30, 485, 5470]


def test_enumeration_and_tally_match_the_knapsack_count():
    # the fill search's count of each deficit, and the labels listed, against
    # a count that shares no code with chain_fills or the admissible walk
    for ell, n in CONES:
        counts = chain_counts(ell, (n * ell,) * ell, (n,) * ell)
        tally, _ = residues.chain_fills(ell, (n * ell,) * ell)
        total = 0
        for _, deficit in residues._admissible_partitions((n,) * ell):
            assert tally(deficit, 0) == counts[deficit], (ell, n, deficit)
            total += tally(deficit, 0)
        assert total == len(enumerate_orbit_labels(n, ell)) == cone_count(n, ell), (ell, n)
    for ell, n in [(1, 6), (2, 3), (3, 2), (4, 1)]:
        assert len(enumerate_striped(ell, delta(ell, n))) == cone_count(n, ell), (ell, n)


def test_enumerate_orbit_labels_cap():
    assert len(enumerate_orbit_labels(2, 2, max_count=28)) == 28
    with pytest.raises(ValueError, match="cap of 27"):
        enumerate_orbit_labels(2, 2, max_count=27)
    # a cone of exactly max_count labels comes back whole, one less raises;
    # these are the cones the benchmark enumerates
    for ell, n in [(1, 8), (2, 4), (3, 3), (4, 2)]:
        labels = orbit_labels(n, ell)
        assert enumerate_orbit_labels(n, ell, max_count=len(labels)) == labels
        with pytest.raises(ValueError, match=f"cap of {len(labels) - 1}$"):
            enumerate_orbit_labels(n, ell, max_count=len(labels) - 1)
    # the cap fires while the labels are produced, not after a full search;
    # (n, ell) = (30, 3) and (8, 6) took 14 s and 4.5 s while the search
    # still entered remainders it could not fill, which no cap counts
    for n, ell in [(12, 2), (5, 4), (30, 3), (8, 6), (12, 4)]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap of 1000"):
            enumerate_orbit_labels(n, ell, max_count=1000)
        assert time.perf_counter() - start < 1.0, (n, ell)
    # a memoized tail list stops at the cap too: the tails of the empty
    # partition at ell = 12, built whole, take tens of seconds
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap of 1000"):
        enumerate_orbit_labels(2, 12, max_count=1000)
    assert time.perf_counter() - start < 5.0


def test_enumerate_orbit_labels_counts_before_listing(monkeypatch):
    # the cap error of an oversized cone comes from counting the labels, not
    # from listing them: not one OrbitLabel is built before it is raised
    built = []

    class CountedLabel(OrbitLabel):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(residues, "OrbitLabel", CountedLabel)
    assert len(enumerate_orbit_labels(2, 2)) == len(built) == 28
    built.clear()
    with pytest.raises(ValueError, match="cap of 1000000$"):
        enumerate_orbit_labels(1, 20)
    assert built == []


def test_partitions_with_one_deficit_share_their_nu_objects():
    # each deficit's multipartitions are listed once, by the fills memo, and
    # every partition that leaves that deficit holds those same objects
    by_deficit = {}
    labels = enumerate_orbit_labels(3, 3)
    for lam, group in itertools.groupby(labels, key=lambda label: label.lam):
        deficit = tuple(3 - c for c in column_residue(lam, 3).main)
        by_deficit.setdefault(deficit, []).append([label.nu for label in group])
    shared = [lists for lists in by_deficit.values() if len(lists) > 1]
    assert len(shared) == 12
    for first, *others in shared:
        for nus in others:
            assert len(nus) == len(first)
            assert all(a is b for a, b in zip(nus, first))


def test_admissible_walk_matches_the_recursive_walk():
    # every target vector with entries <= 4 at ell <= 3 and <= 2 at ell 4, 5
    targets = [t for ell in (1, 2, 3) for t in itertools.product(range(5), repeat=ell)]
    targets += [t for ell in (4, 5) for t in itertools.product(range(3), repeat=ell)]
    for target in targets:
        walked = list(residues._admissible_partitions(target))
        assert walked == list(admissible_partitions(target)), target


def test_orbit_label_groups_flatten_to_the_labels():
    # each group is one admissible partition, largest first, with its
    # deficit and the fills of that deficit; flattened, the labels
    cones = [(ell, n) for ell in range(1, 5) for n in range(12 // ell + 1)]
    for ell, n in cones:
        target = (n,) * ell
        groups = residues.orbit_label_groups(target)
        flat = [OrbitLabel(lam, nu) for lam, _, fills in groups for nu in fills]
        assert flat == enumerate_orbit_labels(n, ell) == orbit_labels(n, ell), (ell, n)
        lams = [lam.parts for lam, _, _ in groups]
        assert lams == sorted(set(lams), reverse=True), (ell, n)
        for lam, deficit, fills in groups:
            assert deficit == tuple(n - c for c in column_residue(lam, ell).main), (ell, n, lam)
            assert fills and all(shifted_residue(nu, ell).main == deficit for nu in fills)


def test_orbit_label_groups_share_one_fill_list_per_deficit():
    # on the cones the benchmark enumerates, where fewer deficits than
    # partitions occur
    for ell, n in [(1, 8), (2, 4), (3, 3), (4, 2)]:
        groups = residues.orbit_label_groups((n,) * ell)
        lists = {}
        for _, deficit, fills in groups:
            assert lists.setdefault(deficit, fills) is fills, (ell, n, deficit)
        assert len(lists) < len(groups), (ell, n)


def test_orbit_label_groups_raise_past_the_cap_before_any_group(monkeypatch):
    # the cap is checked on the counts: no fill list is read, so no group
    # is built, before the error
    read = []
    chain_fills = residues.chain_fills

    def counted_fills(*args, **kwargs):
        tally, fills = chain_fills(*args, **kwargs)

        def listed(remaining, vertex):
            read.append((remaining, vertex))
            return fills(remaining, vertex)

        return tally, listed

    monkeypatch.setattr(residues, "chain_fills", counted_fills)
    assert len(residues.orbit_label_groups((2, 2), max_count=28)) == 12
    assert read
    read.clear()
    with pytest.raises(ValueError, match="cap of 27$"):
        residues.orbit_label_groups((2, 2), max_count=27)
    with pytest.raises(ValueError, match="cap of 1000000$"):
        residues.orbit_label_groups((1,) * 20)
    assert read == []


def test_chain_fills_share_valid_partitions():
    # the chain-length partitions and the multipartitions the fill search
    # builds without checks, and the partitions the admissible walk yields,
    # on the cones the benchmark enumerates, equal the validated values of
    # their parts
    for ell, n in [(1, 8), (2, 4), (3, 3), (4, 2)]:
        labels = enumerate_orbit_labels(n, ell)
        partitions = {id(p): p for label in labels for p in (label.lam, *label.nu)}
        for p in partitions.values():
            assert type(p.parts) is tuple
            assert all(type(x) is int for x in p.parts)
            assert p == Partition(p.parts) and hash(p) == hash(Partition(p.parts))
            assert Partition(p.parts).parts == p.parts
        for nu in {id(label.nu): label.nu for label in labels}.values():
            checked = Multipartition(nu.components)
            assert type(nu.components) is tuple and len(nu) == ell
            assert nu == checked and hash(nu) == hash(checked)


def test_chain_fillable_matches_the_direct_search():
    # every remainder with entries up to 3, from every start vertex
    checked = 0
    for ell in range(1, 5):
        for remaining in itertools.product(range(4), repeat=ell):
            for vertex in range(ell + 1):
                some_fill = next(fill_with_chains(remaining, vertex, ell), None)
                assert chain_fillable(remaining, vertex) == (some_fill is not None), (
                    remaining,
                    vertex,
                )
                checked += 1
    assert checked == 1592


def test_label_count_matches_striped_count():
    # the oracle's striped bipartitions: enumerate_striped is the labels' image
    for n, ell in [(1, 2), (2, 2), (1, 3)]:
        assert len(enumerate_orbit_labels(n, ell)) == len(striped_bipartitions(ell, delta(ell, n)))


def test_core_quotient_examples():
    core, quotient = ell_quotient_core(Partition([1]), 2)
    assert core == Partition([1])
    assert all(not c for c in quotient)
    core, quotient = ell_quotient_core(Partition([2]), 2)
    assert core == Partition([])
    assert quotient.size == 1
    for ell in (2, 3, 4):
        core, _ = ell_quotient_core(Partition([ell]), ell)
        assert core == Partition([])


def test_core_quotient_size_and_roundtrip():
    # both directions agree with the bead code written out per direction
    for n in range(13):
        for lam in enumerate_partitions(n):
            for ell in (1, 2, 3, 4):
                core, quotient = ell_quotient_core(lam, ell)
                assert (core, quotient) == partition_oracle.ell_quotient_core(lam, ell)
                assert core.size + ell * quotient.size == n
                assert from_core_quotient(core, quotient, ell) == lam
                assert partition_oracle.from_core_quotient(core, quotient, ell) == lam


def test_from_core_quotient_rejects_non_core():
    with pytest.raises(ValueError):
        from_core_quotient(Partition([2]), mp(2, (), ()), 2)


def test_trivial_core_matches_residue_equation():
    # partitions of n*ell with empty core = those whose label pairs with the
    # empty multipartition
    for n, ell in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (1, 4)]:
        if n * ell > 12:
            continue
        with_empty_nu = {
            label.lam
            for label in enumerate_orbit_labels(n, ell)
            if all(not c for c in label.nu)
        }
        trivial_core = {
            lam
            for lam in enumerate_partitions(n * ell)
            if ell_quotient_core(lam, ell)[0] == Partition([])
        }
        assert with_empty_nu == trivial_core
        # the quotient identifies them with ell-multipartitions of n
        quotients = {ell_quotient_core(lam, ell)[1] for lam in trivial_core}
        assert len(quotients) == len(trivial_core)


def test_runs_vector_is_the_sum_of_the_run_vectors():
    rng = random.Random(9)
    for ell in range(1, 6):
        assert runs_vector([], ell) == (0,) * ell
        for _ in range(60):
            runs = [(rng.randint(-9, 9), rng.randint(0, 14)) for _ in range(rng.randint(1, 5))]
            want = [0] * ell
            for start, length in runs:
                for k in range(length):
                    want[(start + k) % ell] += 1
            summed = tuple(map(sum, zip(*(run_vector(s, p, ell) for s, p in runs))))
            assert runs_vector(runs, ell) == summed == tuple(want), (runs, ell)
            assert runs_vector(iter(runs), ell) == summed
