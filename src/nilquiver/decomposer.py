"""Exact Krull-Remak-Schmidt decomposition of nilpotent cyclic-quiver reps.

A framed representation M with framing vector v is decomposed from two
rank tables: the path ranks of M and those of the quotient M/<v>, where
<v> is the subrepresentation generated by v.  A telescoping count turns
each table into chain multiplicities, A for M and B for M/<v>, and the
label follows from (A, B) in closed form (for ell = 1 this pair is the
invariant of Achar and Henderson, Adv. Math. 219 (2008)).

Gluing lemma.  Let lam have Frobenius hooks (l_c, a_c), c = 1..K, legs and
arms strictly decreasing.  The label's representative is the sum of the
chains chain(-a_c, a_c + l_c + 1) with v = sum_c e_{c, a_c} (e_{c, k} the
vector at offset k of chain c), plus the plain chains nu.  Then

    M/<v> = sum_c chain(-a_c, a_c + l_{c+1} + 1) + nu,    l_{K+1} = -1,

that is, the head of chain c (its a_c vectors before the mark) is glued to
the tail of chain c+1 (its l_{c+1} + 1 vectors from the mark on).  Proof
sketch: <v> is spanned by f_{1, k}, where f_{c, k} = sum_{c' >= c}
e_{c', a_c' + k}; this vanishes for k > l_c, because legs decrease.  Put
h_{c, j} = sum_{c' <= c} e_{c', a_c' - a_c + j} for j < a_c (the top a_c
vectors of every head c' <= c; arms decrease, so they exist).  The h and f
vectors are unitriangular in the e basis, so together they form a basis.
The arrows move h_{c, j} to h_{c, j+1} and f_{c, k} to f_{c, k+1}, and they
send h_{c, a_c - 1} to the marks of chains 1..c, which are -f_{c+1, 0}
modulo v.  So, modulo <v>, the h_c vectors followed by -f_{c+1} form one
chain of length a_c + l_{c+1} + 1.

The lengths interleave, L_1 > G_1 > L_2 > ... > L_K > G_K >= 0 with L_c =
a_c + l_c + 1 and G_c = a_c + l_{c+1} + 1, so no framed chain equals a
glued one.  Hence F = A - B (multiset difference) lists the framed chains,
G = B - A the glued ones (G_K is absent when a_K = 0), and nu = A & B; the
hooks come back from the pairing of F and G by rank (``_label_of_chains``).

Linear algebra runs only on the input and takes no nullspace.  Each
arrow's nonzero terms are listed once per call (``_arrow_terms``), and
every product with the arrow sums only those: a label's representative
has 0/1 arrows with at most one nonzero per column.  From each start
vertex i the composites P(i, L) of L arrows are formed once each, as the
next arrow applied to a basis of the previous composite's image (its
pivot columns, so only r(i, L) columns are carried on), and one
fraction-free elimination of [P(i, L) | K_{i+L}] per path step
(``_rank_tables``; K_j the span of the Krylov vectors x^k v at vertex j)
gives both rank tables: the pivots among P's columns give the path rank
of M, all pivots less dim K_{i+L} that of M/<v>.  A composite of
``dims.total`` arrows that does not vanish certifies that the cycle is not
nilpotent.  Every answer is certified: the label's forward invariants
(``_label_invariants``) must reproduce (A, B).  ``framed_jordan_type``
reads the Achar-Henderson bipartition of a marked nilpotent matrix off
this one route and ``label_to_bipartition``; the centralizer route to the
same pair and the hom probes are test oracles in ``tests/``.

Everything is computed over exact rationals; an answer is either certified
or an error is raised, never silently guessed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .circle_diagrams import CircleDiagram
from .linalg import RationalMatrix, _matvec, _terms
from .orbit_maps import label_to_bipartition
from .partitions import Bipartition, FrobeniusPartition, Multipartition, Partition
from .rep_builder import QuiverRep, label_chains
from .residues import DimensionVector, OrbitLabel, runs_vector


# ---------------------------------------------------------------------------
# path ranks and chain multiplicities
# ---------------------------------------------------------------------------


def _arrow_terms(rep: QuiverRep) -> list[list[list[tuple]]]:
    """The nonzero terms of each arrow's rows (``linalg._terms``), listed
    once so every product with that arrow sums only them."""
    return [_terms(m.rows) for m in rep.maps]


def _krylov_spans(rep: QuiverRep, terms: list[list[list[tuple]]]) -> list[list[tuple]]:
    """The Krylov vectors x^k v of a framed input, vector k at vertex k mod
    ell, grouped by vertex; empty lists for an unframed input or v = 0.
    ``terms`` are the arrows' terms (``_arrow_terms``).

    The walk stops at the first zero vector or after ``dims.total`` steps,
    which a nilpotent cycle never needs: every chain has at most ``total``
    vectors.  A v with a component in a non-nilpotent part thus ends the
    walk too, and the rank table reports the cycle.
    """
    spans: list[list[tuple]] = [[] for _ in range(rep.ell)]
    w = rep.framing_vector
    for k in range(rep.dims.total):
        if not any(w):
            break
        spans[k % rep.ell].append(w)
        w = _matvec(terms[k % rep.ell], w)
    return spans


def _rank_tables(
    rep: QuiverRep, terms: list[list[list[tuple]]], spans: list[list[tuple]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Path ranks r(i, L) of M and r'(i, L) of M/K, one elimination per
    path step, as one list per start vertex i (zero past its end).

    K_j = ``spans[j]`` holds independent vectors at vertex j spanning an
    x-stable subspace.  The composite P(i, L) of L arrows is kept as
    columns spanning its image: the first arrow's own, then the next arrow
    applied to a basis of the previous composite's image, summing only the
    arrow's nonzero ``terms`` (``_arrow_terms``).  One elimination
    of [P(i, L) | K_{i+L}], P's columns first, gives both ranks: the pivots
    among P's columns count r(i, L), and all pivots less dim K_{i+L} count
    r'(i, L), the rank of the induced map M_i/K_i -> M_{i+L}/K_{i+L}.  The
    pivot columns among P's are that basis, so only r(i, L) columns go on
    to the next step and the eliminations shrink as the ranks fall.  A row
    ends at its first zero composite; a nonzero composite of
    ``dims.total`` arrows means the cycle is not nilpotent (ValueError).
    """
    ell, main, total = rep.ell, rep.dims.main, rep.dims.total
    plain: list[list[int]] = []
    quotient: list[list[int]] = []
    for i in range(ell):
        plain_row, quotient_row = [main[i]], [main[i] - len(spans[i])]
        columns = list(zip(*rep.maps[i].rows))
        for length in range(1, total + 1):
            if not any(map(any, columns)):
                break
            end = (i + length) % ell
            span = spans[end]
            stacked = columns + span
            pivots = RationalMatrix._built(tuple(zip(*stacked)), len(stacked)).pivot_columns()
            rank = bisect_left(pivots, len(columns))
            if length == total:
                raise ValueError(
                    f"cycle map is not nilpotent: the composite of {total} arrows "
                    f"from vertex {i} has rank {rank}"
                )
            plain_row.append(rank)
            quotient_row.append(len(pivots) - len(span))
            columns = [_matvec(terms[end], columns[p]) for p in pivots[:rank]]
        plain.append(plain_row)
        quotient.append(quotient_row)
    return plain, quotient


def _chain_counts(main: tuple[int, ...], ranks: list[list[int]]) -> Counter:
    """Chain multiplicities from the path ranks (``ranks[i][L]``, zero past
    the end of the row) of a nilpotent representation with dimension vector
    ``main``."""
    ell, top = len(main), sum(main)

    def rank(i: int, length: int) -> int:
        return ranks[i][length] if length < len(ranks[i]) else 0

    mult: Counter = Counter()
    for i in range(ell):
        for length in range(1, top + 1):
            m = (
                rank(i, length - 1)
                - rank(i, length)
                - rank((i - 1) % ell, length)
                + rank((i - 1) % ell, length + 1)
            )
            if m < 0:
                raise ValueError(
                    "negative chain multiplicity: input is not nilpotent or corrupted"
                )
            if m:
                mult[(i, length)] = m
    if runs_vector(mult.elements(), ell) != main:
        raise ValueError("chain multiplicities do not fill the dimension vector; "
                         "input is not nilpotent")
    return mult


def chain_multiplicities(rep: QuiverRep) -> dict[tuple[int, int], int]:
    """Multiplicity of each chain summand (start, length) of the unframed part.

    Telescoping rank count: with r(i, L) the rank of the composite of L
    arrows from vertex i, the chain (i, N) appears
    r(i, N-1) - r(i, N) - r(i-1, N) + r(i-1, N+1) times.  Raises when the
    cycle map is not nilpotent.
    """
    plain, _ = _rank_tables(rep, _arrow_terms(rep), [[] for _ in range(rep.ell)])
    return _chain_counts(rep.dims.main, plain)


# ---------------------------------------------------------------------------
# decomposition of framed representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Result of a full decomposition: the framed summand's partition (None
    for an unframed input) and the chain lengths grouped by start vertex."""

    framed_part: Partition | None
    plain_parts: Multipartition

    def label(self) -> OrbitLabel:
        if self.framed_part is None:
            raise ValueError("unframed decomposition carries no orbit label")
        return OrbitLabel(self.framed_part, self.plain_parts)

    def to_json(self) -> dict:
        return {
            "lambda": None if self.framed_part is None else list(self.framed_part.parts),
            "nu": [list(c.parts) for c in self.plain_parts],
        }

    def __str__(self) -> str:
        head = "-" if self.framed_part is None else str(self.framed_part)
        return f"({head};{self.plain_parts})"


def _label_invariants(label: OrbitLabel) -> tuple[Counter, Counter]:
    """Chain multiplicities (A, B) of the label's representative M and of
    M/<v>: M/<v> keeps the plain chains and glues the head of hook chain c
    (its vectors before the mark) to the tail of hook chain c+1 (its vectors
    from the mark on); the head of the last chain stays alone."""
    chains = label_chains(label)
    plain = Counter((start, length) for start, length, _ in chains)
    quotient = Counter((start, length) for start, length, mark in chains if mark is None)
    hooks = [(start, mark, length - mark) for start, length, mark in chains if mark is not None]
    for (start, head, _), (_, _, tail) in zip(hooks, hooks[1:] + [(0, 0, 0)]):
        if head + tail:
            quotient[(start, head + tail)] += 1
    return plain, quotient


def _label_of_chains(ell: int, plain: Counter, quotient: Counter) -> OrbitLabel:
    """The inverse of ``_label_invariants``, in closed form.

    The framed chains F = A - B and the glued chains G = B - A, each sorted
    by length, pair by rank: a_K = G_K (0 when G has only K - 1 chains),
    then l_c = F_c - a_c - 1 and a_{c-1} = G_{c-1} - l_c - 1.  The plain
    chains are A & B.  Data that fit no label raise AssertionError.
    """
    framed = sorted((plain - quotient).elements(), key=lambda chain: -chain[1])
    glued = sorted((quotient - plain).elements(), key=lambda chain: -chain[1])
    k = len(framed)
    if len(glued) not in (k, k - 1):
        raise AssertionError(f"{k} framed chains but {len(glued)} glued chains")
    legs, arms = [0] * k, [0] * k
    arm = glued[-1][1] if k and len(glued) == k else 0
    for c in reversed(range(k)):
        legs[c], arms[c] = framed[c][1] - arm - 1, arm
        if c:
            arm = glued[c - 1][1] - legs[c] - 1
    try:
        lam = FrobeniusPartition(tuple(legs), tuple(arms)).partition()
    except ValueError as exc:
        raise AssertionError(f"the chains of M and M/<v> fit no partition: {exc}") from exc
    nu = CircleDiagram(ell, tuple((plain & quotient).elements())).multipartition()
    return OrbitLabel(lam, nu)


def decompose_enhanced(rep: QuiverRep) -> Decomposition:
    """Decompose a nilpotent representation into its canonical label.

    The chain multiplicities A of M and, for a framed input, B of M/<v>
    come from one rank table pass (``_rank_tables``): per path step, one
    elimination of the composite's columns followed by the Krylov vectors
    x^k v at its end vertex gives the path ranks of both.  Gluing lemma:
    M/<v> keeps the plain chains and glues the head of hook chain c to the
    tail of hook chain c+1 (proof: modulo v the end of head c, summed with
    the heads before it, maps to minus the sum of the marks after it; see
    the module docstring).  So A - B lists the hook chains, B - A the glued
    ones and A & B the plain chains, and a zero framing vector gives B = A
    and the empty partition.  The label's own (A, B) must equal the
    input's, else AssertionError; a non-nilpotent input raises ValueError.
    """
    terms = _arrow_terms(rep)
    spans = _krylov_spans(rep, terms)
    plain_ranks, quotient_ranks = _rank_tables(rep, terms, spans)
    plain = _chain_counts(rep.dims.main, plain_ranks)
    if not rep.framed:
        return Decomposition(None, CircleDiagram(rep.ell, tuple(plain.elements())).multipartition())
    main = tuple(d - len(span) for d, span in zip(rep.dims.main, spans))
    quotient = _chain_counts(main, quotient_ranks)
    label = _label_of_chains(rep.ell, plain, quotient)
    if _label_invariants(label) != (plain, quotient):
        raise AssertionError(f"label {label} does not reproduce the chains of M and M/<v>")
    return Decomposition(label.lam, label.nu)


def framed_jordan_type(v: tuple, x: RationalMatrix) -> Bipartition:
    """The Achar-Henderson bipartition (mu; nu) of a vector v and a
    nilpotent matrix x: the label of the one-vertex framed representation
    with arrow x and framing vector v, translated by
    ``label_to_bipartition``.  mu + nu rearranges the Jordan type of x.
    A non-nilpotent x or a v of the wrong length raises ValueError."""
    rep = QuiverRep(1, DimensionVector(1, (x.nrows,)), (x,), tuple(v))
    label = decompose_enhanced(rep).label()
    return Bipartition(*label_to_bipartition(label.lam, label.nu[0]))


def isomorphic(a: QuiverRep, b: QuiverRep) -> bool:
    """Isomorphism test through canonical decompositions."""
    return a.dims == b.dims and decompose_enhanced(a) == decompose_enhanced(b)
