"""Exact Krull-Remak-Schmidt decomposition of nilpotent cyclic-quiver reps.

The unframed part of a representation is recovered from ranks of path
composites (a telescoping count of chain multiplicities).  The framed
indecomposable summand is identified by enumerating the finitely many
candidate labels compatible with those multiplicities and certifying the
unique match through hom-space dimensions from the candidates' framed
indecomposables.  Linear algebra runs only on the input, whose path
composites are formed once each in one table (``_PathComposites``) that
serves the path ranks, the nilpotency certificate and the probe kernels.
Each candidate's canonical representative is a direct sum of chains, so
its hom dimensions are counted from hook data (``_label_fingerprint``)
without building a matrix.  The centralizer invariant of a marked Jordan
matrix is an independent one-vertex route, kept as a test oracle.

Everything is computed over exact rationals; an answer is either certified
or an error is raised, never silently guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RationalMatrix, from_columns
from .orbit_maps import bipartition_to_label
from .partitions import Bipartition, FrobeniusPartition, Multipartition, Partition
from .rep_builder import QuiverRep, label_chains
from .residues import OrbitLabel, run_vector


# ---------------------------------------------------------------------------
# Jordan data of a single nilpotent matrix
# ---------------------------------------------------------------------------


def jordan_type(x: RationalMatrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix, largest first.

    Column j of the transpose counts rank(x^(j-1)) - rank(x^j); a matrix
    whose n-th power fails to vanish is rejected.
    """
    if x.nrows != x.ncols:
        raise ValueError("jordan type of a non-square matrix")
    n = x.nrows
    ranks = [n]
    power = RationalMatrix.identity(n)
    while ranks[-1] > 0:
        power = x @ power
        ranks.append(power.rank())
        if len(ranks) > n + 1:
            raise ValueError(f"matrix is not nilpotent: rank of the {n}-th power is positive")
    cols = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    return Partition(cols).transpose()


def centralizer_basis(x: RationalMatrix) -> list[RationalMatrix]:
    """A basis of the matrices commuting with x."""
    if x.nrows != x.ncols:
        raise ValueError("centralizer of a non-square matrix")
    n = x.nrows
    if n == 0:
        return []
    rows = []
    for r in range(n):
        for c in range(n):
            coeff = [Fraction(0)] * (n * n)
            # (x @ m - m @ x)[r][c] = sum_s x[r][s] m[s][c] - m[r][s] x[s][c]
            for s in range(n):
                coeff[s * n + c] += x.entry(r, s)
                coeff[r * n + s] -= x.entry(s, c)
            rows.append(tuple(coeff))
    basis = RationalMatrix(tuple(rows), n * n).nullspace()
    return [
        RationalMatrix(tuple(tuple(vec[r * n + c] for c in range(n)) for r in range(n)), n)
        for vec in basis
    ]


def _split_by_subspace(x: RationalMatrix, spanning: list[tuple]) -> tuple[RationalMatrix, RationalMatrix]:
    """Restriction of x to the span and the induced map on the quotient.

    The span must be x-stable; its reduced basis is completed to a basis of
    the ambient space by standard vectors, and x is rewritten in that basis.
    """
    n = x.nrows
    if not spanning:
        return RationalMatrix((), 0), x
    pivots, reduced = RationalMatrix(tuple(spanning), n).rref()
    basis = [tuple(reduced[r]) for r in range(len(pivots))]
    r = len(basis)
    pivot_set = set(pivots)
    completion = []
    for c in range(n):
        if c not in pivot_set:
            vec = [Fraction(0)] * n
            vec[c] = Fraction(1)
            completion.append(tuple(vec))
    u = from_columns(basis + completion, n)
    xp = u.inverse() @ x @ u
    lower_left = [xp.entry(i, j) for i in range(r, n) for j in range(r)]
    if any(e != 0 for e in lower_left):
        raise ValueError("subspace is not stable under the matrix")
    top = RationalMatrix(tuple(tuple(xp.entry(i, j) for j in range(r)) for i in range(r)), r)
    bottom = RationalMatrix(
        tuple(tuple(xp.entry(i, j) for j in range(r, n)) for i in range(r, n)), n - r
    )
    return top, bottom


def framed_jordan_type(v: tuple, x: RationalMatrix) -> Bipartition:
    """The marked-Jordan invariant of a vector inside a nilpotent matrix.

    Returns (mu; nu) where mu is the Jordan type of x on the centralizer
    orbit span Z(x)v and nu the type of the induced map on the quotient.
    Rows are paired largest-first; mu + nu rearranges the type of x.
    """
    if len(v) != x.nrows:
        raise ValueError("vector length must match the matrix size")
    jordan_type(x)  # raises on non-nilpotent input
    spanning = []
    v = tuple(Fraction(a) for a in v)
    if any(a != 0 for a in v):
        spanning = [c.apply(v) for c in centralizer_basis(x)]
        spanning = [w for w in spanning if any(a != 0 for a in w)]
    sub, quot = _split_by_subspace(x, spanning)
    return Bipartition(jordan_type(sub), jordan_type(quot))


# ---------------------------------------------------------------------------
# unframed multiplicities
# ---------------------------------------------------------------------------


class _PathComposites:
    """The path composites of one representation, each formed at most once.

    From each start vertex the composites of 0, 1, 2, ... arrows are built
    on demand, one product per length, and ranked.  Once a composite
    vanishes every longer one from that vertex does too, so no product is
    formed past it.
    """

    def __init__(self, rep: QuiverRep):
        self.rep = rep
        self._rows: dict[int, list[tuple[RationalMatrix, int]]] = {}

    def _row(self, start: int, length: int) -> list[tuple[RationalMatrix, int]]:
        """(composite, rank) per length from ``start``, up to ``length`` or
        to the first zero composite."""
        row = self._rows.get(start)
        if row is None:
            identity = RationalMatrix.identity(self.rep.dims.main[start])
            row = self._rows[start] = [(identity, identity.nrows)]
        while len(row) <= length and row[-1][1]:
            at = (start + len(row) - 1) % self.rep.ell
            composite = self.rep.maps[at] @ row[-1][0]
            row.append((composite, composite.rank()))
        return row

    def path(self, start: int, length: int) -> RationalMatrix:
        """Composite of ``length`` arrows beginning at ``start``."""
        row = self._row(start, length)
        if length < len(row):
            return row[length][0]
        main = self.rep.dims.main
        return RationalMatrix.zero(main[(start + length) % self.rep.ell], main[start])

    def rank(self, start: int, length: int) -> int:
        row = self._row(start, length)
        return row[length][1] if length < len(row) else 0


def _plain_parts(ell: int, mult: dict[tuple[int, int], int]) -> Multipartition:
    """Chain lengths grouped by start vertex."""
    comps: list[list[int]] = [[] for _ in range(ell)]
    for (i, length), m in mult.items():
        comps[i].extend([length] * m)
    return Multipartition(tuple(Partition(sorted(c, reverse=True)) for c in comps))


def _multiplicities(paths: _PathComposites) -> dict[tuple[int, int], int]:
    """``chain_multiplicities`` from a representation's composite table."""
    rep = paths.rep
    total = rep.dims.total
    ell = rep.ell
    if total == 0:
        return {}
    # every chain has at most `total` vectors, so a nilpotent input kills
    # each composite of `total` arrows; otherwise the cycle is not nilpotent
    for i in range(ell):
        if paths.rank(i, total):
            raise ValueError(
                f"cycle map is not nilpotent: the composite of {total} arrows "
                f"from vertex {i} has rank {paths.rank(i, total)}"
            )
    mult: dict[tuple[int, int], int] = {}
    for i in range(ell):
        for length in range(1, total + 1):
            m = (
                paths.rank(i, length - 1)
                - paths.rank(i, length)
                - paths.rank((i - 1) % ell, length)
                + paths.rank((i - 1) % ell, length + 1)
            )
            if m < 0:
                raise ValueError(
                    "negative chain multiplicity: input is not nilpotent or corrupted"
                )
            if m:
                mult[(i, length)] = m
    rebuilt = [0] * ell
    for (i, length), m in mult.items():
        for j, extra in enumerate(run_vector(i, length, ell)):
            rebuilt[j] += m * extra
    if tuple(rebuilt) != rep.dims.main:
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
    return _multiplicities(_PathComposites(rep))


def cyclic_multiplicities(rep: QuiverRep) -> Multipartition:
    """Chain lengths of the unframed part grouped by start vertex."""
    return _plain_parts(rep.ell, chain_multiplicities(rep))


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------


def hom_dim(a: QuiverRep, b: QuiverRep) -> int:
    """Dimension of the space of homomorphisms a -> b.

    Framing is part of the structure: when both sides are framed the framing
    component is a free scalar tied to f_0 by the framing vectors; when only
    the source is framed, its framing vector must map to zero.
    """
    if a.ell != b.ell:
        raise ValueError("cycle length mismatch")
    ell = a.ell
    da, db = a.dims.main, b.dims.main
    offsets = []
    nvars = 0
    for i in range(ell):
        offsets.append(nvars)
        nvars += db[i] * da[i]
    scalar = a.framed and b.framed
    t_index = nvars
    if scalar:
        nvars += 1

    rows: list[tuple] = []
    for i in range(ell):
        nxt = (i + 1) % ell
        for r in range(db[nxt]):
            for c in range(da[i]):
                coeff = [Fraction(0)] * nvars
                for s in range(da[nxt]):
                    coeff[offsets[nxt] + r * da[nxt] + s] += a.maps[i].entry(s, c)
                for s in range(db[i]):
                    coeff[offsets[i] + s * da[i] + c] -= b.maps[i].entry(r, s)
                rows.append(tuple(coeff))
    if a.framed:
        for r in range(db[0]):
            coeff = [Fraction(0)] * nvars
            for c in range(da[0]):
                coeff[offsets[0] + r * da[0] + c] += a.framing_vector[c]
            if scalar:
                coeff[t_index] -= b.framing_vector[r]
            rows.append(tuple(coeff))
    if not rows:
        return nvars
    return nvars - RationalMatrix(tuple(rows), nvars).rank()


class _HomProbing:
    """Fast hom dimensions from chain-built probes into one fixed target."""

    def __init__(self, target: QuiverRep):
        self.target = target
        self.paths = _PathComposites(target)
        self._kernels: dict[tuple[int, int], list[tuple]] = {}

    def _kernel(self, start: int, length: int) -> list[tuple]:
        key = (start, length)
        if key not in self._kernels:
            self._kernels[key] = self.paths.path(start, length).nullspace()
        return self._kernels[key]

    def chain_hom(self, start: int, length: int) -> int:
        """dim Hom(chain(start, length), target), framing ignored."""
        return len(self._kernel(start, length))

    def framed_hom(self, lam: Partition) -> int:
        """dim Hom(framed indecomposable of lam, target) as framed reps."""
        assert self.target.framed, "framed probes need a framed target"
        ell = self.target.ell
        f = lam.frobenius()
        columns: list[tuple] = []
        dims_sum = 0
        for leg, arm in zip(f.legs, f.arms):
            start = (-arm) % ell
            length = leg + arm + 1
            kernel = self._kernel(start, length)
            dims_sum += len(kernel)
            if self.paths.rank(start, arm):
                mark_path = self.paths.path(start, arm)
                columns.extend(mark_path.apply(w) for w in kernel)
        columns.append(tuple(-x for x in self.target.framing_vector))
        d0 = self.target.dims.main[0]
        rank = from_columns(columns, d0).rank()
        return dims_sum + 1 - rank


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


def _candidate_labels(ell: int, mult: dict[tuple[int, int], int]) -> list[OrbitLabel]:
    """All labels whose framed part uses a sub-multiset of the given chains.

    A framed partition with hooks (legs, arms) consumes one chain of length
    leg+arm+1 starting at -arm mod ell per hook; hook lengths are strictly
    decreasing, so each length is consumed at most once.
    """
    lengths = sorted({length for (_, length) in mult}, reverse=True)
    found: list[OrbitLabel] = []

    def emit(hooks: list[tuple[int, int]]):
        if not hooks:
            return
        arms = tuple(arm for _, arm in hooks)
        legs = tuple(length - arm - 1 for length, arm in hooks)
        lam = FrobeniusPartition(legs, arms).partition()
        used: dict[tuple[int, int], int] = {}
        for length, arm in hooks:
            key = ((-arm) % ell, length)
            used[key] = used.get(key, 0) + 1
        rest = {key: m - used.get(key, 0) for key, m in mult.items()}
        found.append(OrbitLabel(lam, _plain_parts(ell, rest)))

    def rec(idx: int, prev_arm: int, prev_leg: int, hooks: list[tuple[int, int]]):
        if idx == len(lengths):
            emit(hooks)
            return
        rec(idx + 1, prev_arm, prev_leg, hooks)
        length = lengths[idx]
        for arm in range(min(length - 1, prev_arm - 1), -1, -1):
            leg = length - arm - 1
            if leg >= prev_leg:
                continue
            if mult.get(((-arm) % ell, length), 0) >= 1:
                hooks.append((length, arm))
                rec(idx + 1, arm, leg, hooks)
                hooks.pop()

    big = max((length for (_, length) in mult), default=0) + 1
    rec(0, big, big, [])
    return found


def _label_fingerprint(label: OrbitLabel, probes: tuple[Partition, ...]) -> tuple[int, ...]:
    """``_HomProbing(build_label_rep(label)).framed_hom`` of every probe,
    counted from chain positions instead of linear algebra.

    In the canonical representative each arrow moves a chain's basis vector
    at offset k to offset k+1, or to zero at the chain's end.  For a probe
    hook (leg, arm) starting at s = -arm mod ell with L = leg+arm+1:

    * the kernel of the L-step path from s is spanned by the positions at
      vertex s whose remaining length r (chain length minus offset) is at
      most L;
    * the arm-step path sends such a position arm offsets on if r > arm,
      and to zero otherwise;
    * the framing vector is the sum of the marked positions, so it lies in
      the span of the images exactly when every marked position is one.

    Hence the hom dimension is the number of kernel vectors plus one, minus
    the number of distinct images, minus one if some mark is not an image
    (W. Crawley-Boevey, J. Algebra 126 (1989), for maps between string
    modules).
    """
    ell = label.ell
    chains = label_chains(label)
    marks = {(c, mark) for c, (_, _, mark) in enumerate(chains) if mark is not None}
    fingerprint = []
    for lam in probes:
        f = lam.frobenius()
        kernel = 0
        images: set[tuple[int, int]] = set()
        for leg, arm in zip(f.legs, f.arms):
            s = (-arm) % ell
            reach = leg + arm + 1
            for c, (start, length, _) in enumerate(chains):
                # first offset at vertex s whose remaining length is <= reach
                low = max(0, length - reach)
                first = low + (s - start - low) % ell
                kernel += len(range(first, length, ell))
                images.update((c, k + arm) for k in range(first, length - arm, ell))
        fingerprint.append(kernel + 1 - len(images) - (not marks <= images))
    return tuple(fingerprint)


def decompose_enhanced(rep: QuiverRep, method: str = "fingerprint") -> Decomposition:
    """Decompose a nilpotent representation into its canonical label.

    ``method`` is "fingerprint", the one production route: chain
    multiplicities from path ranks, then the candidate labels they allow,
    certified by hom dimensions from the candidates' framed parts.
    "invariant" (one-vertex only: the centralizer invariant of the marked
    Jordan matrix, then the removable-row translation) is an independent
    oracle that the test suite cross-checks against it.  A non-nilpotent
    input raises ValueError; a tie between candidates raises AssertionError.
    """
    if method not in ("fingerprint", "invariant"):
        raise ValueError(f"unknown method {method!r}")
    if not rep.framed:
        if method == "invariant":
            raise ValueError("the invariant route needs a framed input")
        return Decomposition(None, cyclic_multiplicities(rep))

    if method == "invariant":
        if rep.ell != 1:
            raise ValueError("the invariant route only applies to one-vertex inputs")
        pair = framed_jordan_type(rep.framing_vector, rep.maps[0])
        eta, zeta = bipartition_to_label(pair.first, pair.second)
        return Decomposition(eta, Multipartition((zeta,)))

    probing = _HomProbing(rep)
    mult = _multiplicities(probing.paths)
    if all(x == 0 for x in rep.framing_vector):
        return Decomposition(Partition(), _plain_parts(rep.ell, mult))

    candidates = _candidate_labels(rep.ell, mult)
    if not candidates:
        raise ValueError("no label matched: input lies outside the nilpotent cone")
    probes = tuple(sorted({c.lam for c in candidates}, key=lambda p: p.parts))
    fingerprint = tuple(probing.framed_hom(lam) for lam in probes)
    matches = [c for c in candidates if _label_fingerprint(c, probes) == fingerprint]
    if not matches:
        raise ValueError("no label matched: input lies outside the nilpotent cone")
    if len(matches) > 1:
        raise AssertionError(
            "hom fingerprint failed to separate candidate labels "
            + ", ".join(str(label) for label in matches)
        )
    return Decomposition(matches[0].lam, matches[0].nu)


def hom_fingerprint(rep: QuiverRep) -> tuple[int, ...]:
    """Hom dimensions from every indecomposable that fits inside rep.

    Probes are all chains (i, N) with N up to the total dimension and, for
    framed targets, all framed indecomposables whose chain dimensions fit
    componentwise (the empty partition included, which detects a vanishing
    framing vector).  Two nilpotent representations of equal dimension
    vector are isomorphic exactly when these numbers agree; the test suite
    validates that exhaustively at desk scale.
    """
    from .partitions import enumerate_partitions
    from .residues import column_residue

    total = rep.dims.total
    ell = rep.ell
    probing = _HomProbing(rep)
    chains = tuple(
        probing.chain_hom(i, length) for i in range(ell) for length in range(1, total + 1)
    )
    if not rep.framed:
        return chains
    framed_probes = [Partition()]
    for m in range(1, total + 1):
        for lam in enumerate_partitions(m):
            if all(
                a <= b for a, b in zip(column_residue(lam, ell).main, rep.dims.main)
            ):
                framed_probes.append(lam)
    return chains + tuple(probing.framed_hom(lam) for lam in framed_probes)


def isomorphic(a: QuiverRep, b: QuiverRep) -> bool:
    """Isomorphism test through canonical labels."""
    if a.ell != b.ell or a.dims != b.dims:
        return False
    if a.framed:
        return decompose_enhanced(a) == decompose_enhanced(b)
    return cyclic_multiplicities(a) == cyclic_multiplicities(b)
