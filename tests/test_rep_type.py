import itertools

import pytest

from nilquiver import (
    CoveringWindow,
    RepType,
    classify,
    min_tits_over_box,
    search_windows,
    tits_form,
    wildness_witness,
)


def tits_bilinear(window, u, v) -> int:
    """Polarization of the Tits form: q(u+v) - q(u) - q(v)."""
    u_main, u_fr = u
    v_main, v_fr = v
    total_main = tuple(a + b for a, b in zip(u_main, v_main))
    total_fr = tuple(a + b for a, b in zip(u_fr, v_fr))
    return (
        tits_form(window, total_main, total_fr)
        - tits_form(window, u_main, u_fr)
        - tits_form(window, v_main, v_fr)
    )


def brute_force_min(window, max_entry):
    """Independent oracle: evaluate q on every nonzero vector in the box."""
    best = None
    nf = len(window.framing_rows)
    for main in itertools.product(range(max_entry + 1), repeat=window.rows):
        for framing in itertools.product(range(max_entry + 1), repeat=nf):
            if not any(main) and not any(framing):
                continue
            value = tits_form(window, main, framing)
            if best is None or value < best:
                best = value
    return best


def test_classification_table():
    finite = {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)}
    tame = {(2, 2), (4, 1)}
    for ell in range(1, 11):
        for x in range(1, 11):
            want = (
                RepType.FINITE
                if (ell, x) in finite
                else RepType.TAME
                if (ell, x) in tame
                else RepType.WILD
            )
            assert classify(ell, x) is want
    assert classify(1, 3) is RepType.FINITE
    assert classify(2, 2) is RepType.TAME
    assert classify(5, 7) is RepType.WILD


def test_one_vertex_classification_up_to_20():
    for x in range(1, 21):
        want = RepType.FINITE if x <= 3 else RepType.WILD
        assert classify(1, x) is want


def test_window_validation():
    with pytest.raises(ValueError):
        CoveringWindow(2, 1, 5, (1, 2))  # lifts not spaced ell apart
    with pytest.raises(ValueError):
        CoveringWindow(2, 1, 3, (4,))  # outside the window


def test_unit_vectors_have_q_one():
    window = CoveringWindow(2, 2, 5, (1, 3, 5))
    for r in range(5):
        main = tuple(1 if i == r else 0 for i in range(5))
        assert tits_form(window, main, (0, 0, 0)) == 1
    for f in range(3):
        framing = tuple(1 if i == f else 0 for i in range(3))
        assert tits_form(window, (0,) * 5, framing) == 1


def test_relations_only_fit_long_windows():
    # a window shorter than ell*x + 1 rows has no relation pairs
    for ell, x in [(1, 4), (2, 3), (3, 2)]:
        short = CoveringWindow(ell, x, ell * x, tuple(range(1, ell * x + 1, ell)))
        assert short.relation_pairs() == []
        longer = CoveringWindow(ell, x, ell * x + 1, tuple(range(1, ell * x + 2, ell)))
        assert longer.relation_pairs() == [(1, ell * x + 1)]


def test_stored_witnesses_evaluate_to_minus_one():
    # the one-vertex witness (all x >= 4)
    w = wildness_witness(1, 4)
    assert w is not None
    window, main, framing = w
    assert (main, framing) == ((2, 3, 3, 2), (1, 2, 2, 1))
    assert tits_form(window, main, framing) == -1
    # the two-vertex witness (x >= 3)
    window, main, framing = wildness_witness(2, 3)
    assert main == (1, 2, 2, 3, 2, 2, 1)
    assert tits_form(window, main, framing) == -1
    # the three-vertex witness (x >= 2), exactly -1
    window, main, framing = wildness_witness(3, 2)
    assert main == (1, 2, 3, 3, 3, 3, 2, 1)
    assert tits_form(window, main, framing) == -1


def test_every_wild_pair_has_a_witness():
    for ell in range(1, 9):
        for x in range(1, 7):
            witness = wildness_witness(ell, x)
            if classify(ell, x) is RepType.WILD:
                window, main, framing = witness
                assert tits_form(window, main, framing) <= -1
            else:
                assert witness is None


def test_polarization_is_bilinear():
    window = CoveringWindow(2, 2, 6, (2, 4, 6))
    vectors = [
        ((1, 0, 2, 1, 0, 1), (1, 0, 1)),
        ((0, 1, 1, 0, 2, 0), (0, 1, 0)),
        ((2, 2, 0, 1, 1, 1), (1, 1, 1)),
    ]
    u, v, w = vectors
    def b(a, bb):
        return tits_bilinear(window, a, bb)
    uv_sum = (
        tuple(x + y for x, y in zip(u[0], v[0])),
        tuple(x + y for x, y in zip(u[1], v[1])),
    )
    assert b(uv_sum, w) == b(u, w) + b(v, w)
    assert b(u, v) == b(v, u)


def test_dp_minimum_matches_brute_force():
    cases = [
        CoveringWindow(1, 2, 3, (1, 2, 3)),
        CoveringWindow(2, 1, 4, (2, 4)),
        CoveringWindow(1, 4, 4, (1, 2, 3, 4)),
        CoveringWindow(3, 1, 4, (1, 4)),
    ]
    for window in cases:
        for max_entry in (1, 2):
            assert min_tits_over_box(window, max_entry) == brute_force_min(window, max_entry)


def test_dp_finds_the_negative_vectors_on_wild_windows():
    for ell, x, bound in [(1, 4, 3), (2, 3, 3), (3, 2, 3), (4, 2, 4)]:
        window, _, _ = wildness_witness(ell, x)
        assert min_tits_over_box(window, bound) <= -1


def test_bounded_search_sanity_on_finite_and_tame_pairs():
    # no negative vector at small scale where none should exist
    for ell, x in [(1, 1), (1, 2), (2, 1)]:
        assert search_windows(ell, x, max_rows=2 * ell * (x + 1), max_entry=3) >= 0
    for ell, x in [(1, 3), (3, 1)]:
        assert search_windows(ell, x, max_rows=8, max_entry=3) >= 0
    # tame pairs reach 0 but not below at small scale
    assert search_windows(2, 2, max_rows=12, max_entry=3) == 0
    assert search_windows(4, 1, max_rows=10, max_entry=3) >= 0
