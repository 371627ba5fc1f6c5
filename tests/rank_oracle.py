"""The two-elimination path-rank route, kept as a test oracle.

``decomposer._rank_tables`` reads the path ranks r(i, L) of M and r'(i, L)
of M/<v> off one elimination of [P(i, L) | K_{i+L}] per path step, where
P(i, L) is the composite of L arrows from vertex i and K_j the span of the
Krylov vectors x^k v at vertex j.  This module keeps the route it replaced:
each composite formed as a product starting from the identity and ranked
on its own, and each quotient rank from a second elimination of the
hstacked [P(i, L) | K_{i+L}].
"""

from __future__ import annotations

from nilquiver.linalg import RationalMatrix, from_columns
from nilquiver.rep_builder import QuiverRep


def hstack(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """[a | b]: the rows of a and b side by side."""
    return RationalMatrix(tuple(ra + rb for ra, rb in zip(a.rows, b.rows)), a.ncols + b.ncols)


def krylov_spans(rep: QuiverRep) -> list[list[tuple]]:
    """x^k v at vertex k mod ell, walked until it vanishes (so the cycle
    must be nilpotent)."""
    spans: list[list[tuple]] = [[] for _ in range(rep.ell)]
    w, k = rep.framing_vector, 0
    while any(w):
        spans[k % rep.ell].append(w)
        w = rep.maps[k % rep.ell].apply(w)
        k += 1
    return spans


def path_ranks(rep: QuiverRep) -> dict[tuple[int, int], tuple[int, int]]:
    """(r(i, L), r'(i, L)) for every start i and every length L up to the
    first zero composite from i (both ranks vanish past it): the rank of
    the composite, and rank[P(i, L) | K_{i+L}] - dim K_{i+L}."""
    spans = krylov_spans(rep)
    table = {}
    for i in range(rep.ell):
        p = RationalMatrix.identity(rep.dims.main[i])
        for length in range(rep.dims.total + 1):
            at = (i + length) % rep.ell
            span = spans[at]
            r = p.rank()
            quotient = r
            if r and span:
                quotient = hstack(p, from_columns(span, p.nrows)).rank() - len(span)
            table[i, length] = (r, quotient)
            if not r:
                break
            p = rep.maps[at] @ p
    return table
