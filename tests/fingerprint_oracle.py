"""The candidate/fingerprint decomposition route, kept as a test oracle.

``decompose_enhanced`` reads the framed summand off the chain multiplicities
of M and M/<v> in closed form.  This module keeps the independent route it
replaced: enumerate every label whose framed part uses a sub-multiset of
the input's chains, and pick the one whose hom dimensions from the framed
indecomposables of all candidate partitions match the input's.
"""

from __future__ import annotations

from collections import Counter

from nilquiver import CircleDiagram, FrobeniusPartition, OrbitLabel, Partition
from nilquiver.decomposer import _HomProbing, chain_multiplicities
from nilquiver.rep_builder import QuiverRep, label_chains


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
