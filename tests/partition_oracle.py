"""Partition computations as they were read box by box, kept as test oracles.

``partitions`` and ``residues`` read a partition's trailing zeros, weight,
Frobenius rows and beta-numbers straight off its parts, in time linear in
the number of parts.  This module keeps the formulas they replaced: zeros
stripped one slice at a time, the weight counted over every content of the
first hook, the rows below the diagonal filled one box at a time, and the
core/quotient bead code written out for each direction.  The column residue
keeps its oracle ``residue(lam.transpose(), ell)`` in the tests themselves.
"""

from __future__ import annotations

from nilquiver import FrobeniusPartition, Multipartition, Partition


def checked_parts(parts) -> tuple[int, ...]:
    """The parts the constructor stores: trailing zeros stripped one at a
    time, then the order and the sign checked; a bad sequence raises
    ValueError with the constructor's message."""
    parts = tuple(int(x) for x in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return parts


def weight_by_contents(lam: Partition, ell: int) -> int:
    """Boxes of the first hook, contents 1 - len(lam) to lam_1 - 1, whose
    content ell divides, counted one content at a time."""
    if not lam.parts:
        return 0
    k = len(lam.parts)
    return sum(1 for c in range(-(k - 1), lam.parts[0]) if c % ell == 0)


def partition_by_boxes(f: FrobeniusPartition) -> Partition:
    """The partition of Frobenius coordinates f: each hook's arm fills its
    row and its leg adds one box to each row below the diagonal box."""
    k = len(f.legs)
    nrows = (f.legs[0] + 1) if k else 0
    rows = [0] * nrows
    for i in range(k):
        rows[i] = f.arms[i] + (i + 1)
        for r in range(i + 1, i + 1 + f.legs[i]):
            rows[r] += 1
    return Partition(rows)


def ell_quotient_core(lam: Partition, ell: int) -> tuple[Partition, Multipartition]:
    """Core and quotient on ell runners, the bead count a multiple of ell."""
    k = max(len(lam), 1)
    m = ell * ((k + ell - 1) // ell)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    runners: list[list[int]] = [[] for _ in range(ell)]
    for b in beta:
        runners[b % ell].append(b // ell)
    quotient = []
    for positions in runners:
        c = len(positions)
        quotient.append(Partition(p - (c - 1 - idx) for idx, p in enumerate(positions)))
    core_beta = sorted(
        (ell * j + r for r in range(ell) for j in range(len(runners[r]))), reverse=True
    )
    core = Partition(b - (m - 1 - i) for i, b in enumerate(core_beta))
    return core, Multipartition(tuple(quotient))


def from_core_quotient(core: Partition, quotient: Multipartition, ell: int) -> Partition:
    """The partition of an ell-core and a quotient that fits its beads."""
    rows = max(len(core), 1) + ell * (quotient.size + max(len(c) for c in quotient) + 1)
    m = ell * ((rows + ell - 1) // ell)
    beta = [core[i] + (m - 1 - i) for i in range(m)]
    counts = [0] * ell
    for b in beta:
        counts[b % ell] += 1
    new_beta = []
    for r in range(ell):
        c = counts[r]
        comp = quotient[r]
        for idx in range(c):
            position = comp[idx] + (c - 1 - idx)
            new_beta.append(ell * position + r)
    new_beta.sort(reverse=True)
    return Partition(b - (m - 1 - i) for i, b in enumerate(new_beta))
