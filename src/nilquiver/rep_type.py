"""Representation type of the framed cyclic nilpotent algebras.

The algebra attached to (ell, x) bounds the cycle nilpotency by x; its
representation type is finite for (1,1), (1,2), (1,3), (2,1), (3,1), tame
for (2,2) and (4,1), and wild otherwise.  Wildness is witnessed on a finite
window of the universal cover: a vertical chain of ``rows`` main vertices
(arrows pointing downwards), a framing vertex attached at every 0-lift row,
and one minimal relation per vertical path of length ell*x starting at a
0-lift row that fits inside the window.  The Tits form of such a window is

    q(v) = sum of squares - sum over arrows + sum over relation pairs,

and an integer vector with q <= -1 certifies wild type.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class RepType(Enum):
    FINITE = "finite"
    TAME = "tame"
    WILD = "wild"


_FINITE = {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)}
_TAME = {(2, 2), (4, 1)}


def classify(ell: int, x: int) -> RepType:
    """Finite / tame / wild trichotomy of the bounded framed cycle algebra."""
    if ell < 1 or x < 1:
        raise ValueError("ell and x must be positive")
    if (ell, x) in _FINITE:
        return RepType.FINITE
    if (ell, x) in _TAME:
        return RepType.TAME
    return RepType.WILD


@dataclass(frozen=True, slots=True)
class CoveringWindow:
    """A finite slice of the covering quiver.

    Main vertices are rows 1..rows joined by downward arrows; each row in
    ``framing_rows`` (the 0-lifts, spaced ell apart) carries a framing
    vertex with an arrow into it.  Relations are the vertical paths of
    length ell*x starting at 0-lift rows, kept only when they fit.
    """

    ell: int
    x: int
    rows: int
    framing_rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "framing_rows", tuple(int(r) for r in self.framing_rows))
        if self.ell < 1 or self.x < 1 or self.rows < 1:
            raise ValueError("ell, x and rows must be positive")
        fr = self.framing_rows
        if any(not 1 <= r <= self.rows for r in fr):
            raise ValueError("framing rows must lie inside the window")
        if any(b - a != self.ell for a, b in zip(fr, fr[1:])):
            raise ValueError("0-lift rows must be spaced ell apart")

    def relation_pairs(self) -> list[tuple[int, int]]:
        """(start row, end row) of each relation path inside the window."""
        span = self.ell * self.x
        return [(r, r + span) for r in self.framing_rows if r + span <= self.rows]


def tits_form(window: CoveringWindow, main, framing) -> int:
    """Evaluate the window's Tits form on a nonnegative integer vector.

    ``main`` has one entry per row, ``framing`` one entry per framing row.
    """
    main = tuple(int(v) for v in main)
    framing = tuple(int(v) for v in framing)
    if len(main) != window.rows:
        raise ValueError("main vector must have one entry per row")
    if len(framing) != len(window.framing_rows):
        raise ValueError("framing vector must match the framing rows")
    if any(v < 0 for v in main) or any(v < 0 for v in framing):
        raise ValueError("Tits form arguments must be nonnegative")
    q = sum(v * v for v in main) + sum(v * v for v in framing)
    q -= sum(a * b for a, b in zip(main, main[1:]))
    q -= sum(f * main[r - 1] for f, r in zip(framing, window.framing_rows))
    q += sum(main[a - 1] * main[b - 1] for a, b in window.relation_pairs())
    return q


#: Stored wildness certificates: window plus vector, all evaluating to -1.
#: The first three live on windows too short for any relation to fit, and
#: the remaining families extend null vectors of Euclidean subgraphs
#: (D-type for ell = 4, E7-type for ell >= 5) by one extra row.
_WITNESS_TABLE = {
    "ell1": ((1, 2, 3, 4), (2, 3, 3, 2), (1, 2, 2, 1)),
    "ell2": ((2, 4, 6), (1, 2, 2, 3, 2, 2, 1), (1, 1, 1)),
    "ell3": ((3, 6), (1, 2, 3, 3, 3, 3, 2, 1), (1, 1)),
    "ell4": ((2, 6), (2, 4, 4, 4, 4, 4, 2, 1), (2, 2)),
    "big": ((5,), (1, 2, 4, 6, 8, 6, 4, 2), (4,)),
}


def wildness_witness(
    ell: int, x: int
) -> tuple[CoveringWindow, tuple[int, ...], tuple[int, ...]] | None:
    """A (window, main, framing) certificate with Tits form <= -1, if wild.

    Returns None for finite and tame pairs.  Every wild pair is covered by
    a stored certificate whose window admits no relation, so the value is
    independent of x; the certificate is re-evaluated before being returned.
    """
    if classify(ell, x) is not RepType.WILD:
        return None
    if ell == 1:
        key = "ell1"
    elif ell == 2:
        key = "ell2"
    elif ell == 3:
        key = "ell3"
    elif ell == 4:
        key = "ell4"
    else:
        key = "big"
    framing_rows, main, framing = _WITNESS_TABLE[key]
    window = CoveringWindow(ell, x, len(main), framing_rows)
    value = tits_form(window, main, framing)
    assert value <= -1, "stored wildness certificate failed to evaluate"
    return window, main, framing


def min_tits_over_box(window: CoveringWindow, max_entry: int) -> int:
    """Minimum of the Tits form over nonzero vectors with entries <= max_entry.

    Dynamic programming over rows; the state keeps the last ell*x main
    values (enough for both the chain arrows and the relation pairs) plus a
    flag recording whether anything nonzero has been placed yet.
    """
    if max_entry < 1:
        raise ValueError("max_entry must be positive")
    span = window.ell * window.x
    history = max(span, 1)
    framing_set = set(window.framing_rows)
    relation_sources = {b: a for a, b in window.relation_pairs()}

    states: dict[tuple[tuple[int, ...], bool], int] = {((), False): 0}
    for row in range(1, window.rows + 1):
        new_states: dict[tuple[tuple[int, ...], bool], int] = {}
        for (hist, nonzero), cost in states.items():
            for v in range(max_entry + 1):
                c = cost + v * v
                if hist:
                    c -= hist[-1] * v
                if row in relation_sources:
                    back = row - relation_sources[row]
                    c += hist[-back] * v
                if row in framing_set:
                    # split the framing choice by whether it is zero, so the
                    # nonzero flag stays exact
                    options = [
                        (0, v > 0),
                        (min(f * f - f * v for f in range(1, max_entry + 1)), True),
                    ]
                else:
                    options = [(0, v > 0)]
                for extra, makes_nonzero in options:
                    total = c + extra
                    new_hist = (hist + (v,))[-history:]
                    key = (new_hist, nonzero or makes_nonzero)
                    if key not in new_states or new_states[key] > total:
                        new_states[key] = total
        states = new_states
    candidates = [cost for (hist, nonzero), cost in states.items() if nonzero]
    if not candidates:
        raise ValueError("no nonzero vector in the search box")
    return min(candidates)


def search_windows(ell: int, x: int, max_rows: int, max_entry: int) -> int:
    """Minimum Tits value over all windows with at most max_rows rows.

    All 0-lift alignments are tried.  Used as a bounded sanity check that
    finite and tame pairs admit no negative vector at small scale.
    """
    best: int | None = None
    for rows in range(1, max_rows + 1):
        for offset in range(1, ell + 1):
            framing_rows = tuple(r for r in range(offset, rows + 1, ell))
            if not framing_rows:
                continue
            window = CoveringWindow(ell, x, rows, framing_rows)
            value = min_tits_over_box(window, max_entry)
            if best is None or value < best:
                best = value
    assert best is not None
    return best
