"""The candidate/fingerprint decomposition route, kept as a test oracle.

``decompose_enhanced`` reads the framed summand off the chain multiplicities
of M and M/<v> in closed form.  This module keeps the independent route it
replaced: enumerate every label whose framed part uses a sub-multiset of
the input's chains, and pick the one whose hom dimensions from the framed
indecomposables of all candidate partitions match the input's.  Those hom
dimensions come from probes built out of path composites and their
``Fraction`` kernels (``_HomProbing``), checked against the general
intertwiner count ``hom_dim``; ``hom_fingerprint`` lists them for every
indecomposable that fits inside a representation.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from linalg_oracle import fraction_nullspace, from_columns

from nilquiver import (
    CircleDiagram,
    FrobeniusPartition,
    OrbitLabel,
    Partition,
    column_residue,
    enumerate_partitions,
    frobenius_diagram_of_partition,
)
from nilquiver.decomposer import chain_multiplicities
from nilquiver.linalg import RationalMatrix
from nilquiver.rep_builder import QuiverRep, label_chains


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


class _PathComposites:
    """The path composites of one representation, each formed at most once,
    for the hom probes, which need the matrices themselves.

    From each start vertex the composites of 0, 1, 2, ... arrows are built
    on demand, one product per length.  Once a composite vanishes every
    longer one from that vertex does too, so no product is formed past it.
    """

    def __init__(self, rep: QuiverRep):
        self.rep = rep
        self._rows: dict[int, list[RationalMatrix]] = {}

    def path(self, start: int, length: int) -> RationalMatrix:
        """Composite of ``length`` arrows beginning at ``start``."""
        row = self._rows.get(start)
        if row is None:
            row = self._rows[start] = [RationalMatrix.identity(self.rep.dims.main[start])]
        while len(row) <= length and not row[-1].is_zero():
            at = (start + len(row) - 1) % self.rep.ell
            row.append(self.rep.maps[at] @ row[-1])
        if length < len(row):
            return row[length]
        main = self.rep.dims.main
        return RationalMatrix.zero(main[(start + length) % self.rep.ell], main[start])


class _HomProbing:
    """Fast hom dimensions from chain-built probes into one fixed target."""

    def __init__(self, target: QuiverRep):
        self.target = target
        self.paths = _PathComposites(target)
        self._kernels: dict[tuple[int, int], list[tuple]] = {}

    def _kernel(self, start: int, length: int) -> list[tuple]:
        key = (start, length)
        if key not in self._kernels:
            path = self.paths.path(start, length)
            self._kernels[key] = fraction_nullspace(path.rows, path.ncols)
        return self._kernels[key]

    def chain_hom(self, start: int, length: int) -> int:
        """dim Hom(chain(start, length), target), framing ignored."""
        return len(self._kernel(start, length))

    def framed_hom(self, lam: Partition) -> int:
        """dim Hom(framed indecomposable of lam, target) as framed reps."""
        assert self.target.framed, "framed probes need a framed target"
        columns: list[tuple] = []
        dims_sum = 0
        for start, length, arm in frobenius_diagram_of_partition(lam, self.target.ell).chains():
            kernel = self._kernel(start, length)
            dims_sum += len(kernel)
            mark_path = self.paths.path(start, arm)
            columns.extend(mark_path.apply(w) for w in kernel)
        columns.append(tuple(-x for x in self.target.framing_vector))
        d0 = self.target.dims.main[0]
        rank = from_columns(columns, d0).rank()
        return dims_sum + 1 - rank


def hom_fingerprint(rep: QuiverRep) -> tuple[int, ...]:
    """Hom dimensions from every indecomposable that fits inside rep.

    Probes are all chains (i, N) with N up to the total dimension and, for
    framed targets, all framed indecomposables whose chain dimensions fit
    componentwise (the empty partition included, which detects a vanishing
    framing vector).  Two nilpotent representations of equal dimension
    vector are isomorphic exactly when these numbers agree; the test suite
    validates that exhaustively at desk scale.
    """
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


def candidate_labels(ell: int, mult: dict[tuple[int, int], int]) -> list[OrbitLabel]:
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
        nu = CircleDiagram(ell, tuple(Counter(rest).elements())).multipartition()
        found.append(OrbitLabel(lam, nu))

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


def label_fingerprint(label: OrbitLabel, probes: tuple[Partition, ...]) -> tuple[int, ...]:
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


def fingerprint_decompose(rep: QuiverRep) -> OrbitLabel:
    """The label of a framed input whose candidate fingerprints separate:
    the candidates allowed by its chain multiplicities, matched by the hom
    dimensions from each candidate partition's framed indecomposable."""
    probing = _HomProbing(rep)
    mult = chain_multiplicities(rep)
    if not any(rep.framing_vector):
        nu = CircleDiagram(rep.ell, tuple(mult.elements())).multipartition()
        return OrbitLabel(Partition(), nu)
    candidates = candidate_labels(rep.ell, mult)
    probes = tuple(sorted({c.lam for c in candidates}, key=lambda p: p.parts))
    fingerprint = tuple(probing.framed_hom(lam) for lam in probes)
    matches = [c for c in candidates if label_fingerprint(c, probes) == fingerprint]
    assert len(matches) == 1, matches
    return matches[0]
