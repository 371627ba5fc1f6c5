"""The direct orbit-label and striped-bipartition searches, the listings of
all bipartitions and multipartitions, and per-label row rendering, kept as
test oracles.

``residues.orbit_label_groups`` walks only the admissible partitions, in
output order, on an explicit stack; ``admissible_partitions`` is the
recursive walk it replaced, one generator per row.  The listing enters
only chain remainders that
``residues.chain_fillable`` accepts, memoizes the fills from vertex 1
onward and shares each deficit's fills between partitions.
``cli._cmd_enumerate`` renders each partition once per group and each
shared fill list once.  This module keeps the
independent versions they replaced: a search over every partition up to
the size bound that refills the chains from scratch for each one, tries
every chain choice (dead ends included) and sorts the labels at the end,
and a renderer that recomputes every row from its label alone.
``fill_with_chains`` is also the brute-force check of the fillability
criterion.

``orbit_maps.enumerate_striped`` lists the images of the orbit labels
under ``striped_from_label``, so it rests on the label walk.
``striped_bipartitions`` is an enumeration of its own: it walks every
partition of the signature's total, colours the rows of each one and
assigns their markings by its own recursions, with no cap.

``circle_diagrams.bounded_circle_diagrams`` turns its block-0 bound into a
length cap per start vertex inside the fill search; ``chain_allowed`` is
the circlewise filter it applied to the listed fills before.

The knapsack counts ``residues.chain_counts`` and ``residues.cone_count``,
which share no code with the fill search or the admissible walk, live in
``src`` for ``selfcheck``; the tests import them from there.

``enumerate_bipartitions`` and ``enumerate_multipartitions`` list every
bipartition and every ell-multipartition of n from ``enumerate_partitions``
alone.  The library labels the ell = 1 cone through the striped
bipartitions, as it does every other cone, so only the tests list
Achar-Henderson bipartitions: each one's normal form
``build_framed_jordan(mu, nu)`` is an input whose answer
``bipartition_to_label`` gives without the label enumeration.
"""

from __future__ import annotations

import operator

from nilquiver import (
    Bipartition,
    DimensionVector,
    Multipartition,
    OrbitLabel,
    Partition,
    StripedBipartition,
    column_residue,
    delta,
    enumerate_partitions,
    frobenius_diagram_of_partition,
    run_vector,
    zero_hits,
)
from nilquiver.partitions import DEFAULT_ENUMERATION_CAP


def enumerate_bipartitions(n: int, max_count: int = DEFAULT_ENUMERATION_CAP) -> list[Bipartition]:
    """All bipartitions of n, in the order of the 2-multipartitions: first
    component sizes run from n down to 0, each component lex decreasing."""
    return [Bipartition(*m) for m in enumerate_multipartitions(n, 2, max_count)]


def enumerate_multipartitions(
    n: int, ell: int, max_count: int = DEFAULT_ENUMERATION_CAP
) -> list[Multipartition]:
    """All ell-multipartitions of n, componentwise lex decreasing."""
    if ell < 1:
        raise ValueError("ell must be positive")
    out: list[Multipartition] = []

    def fill(i: int, remaining: int, acc: list[Partition]):
        if i == ell - 1:
            for last in enumerate_partitions(remaining, max_count):
                out.append(Multipartition(tuple(acc) + (last,)))
                if len(out) > max_count:
                    raise ValueError(f"enumeration exceeds the cap of {max_count}")
            return
        for m in range(remaining, -1, -1):
            for comp in enumerate_partitions(m, max_count):
                acc.append(comp)
                fill(i + 1, remaining - m, acc)
                acc.pop()

    fill(0, n, [])
    return out


def chain_allowed(i: int, length: int, ell: int, x: int) -> bool:
    """Whether the chain module satisfies the degree-x nilpotency bound."""
    if x < 1:
        raise ValueError("x must be positive")
    return zero_hits(i, length, ell) <= x


def fill_with_chains(deficit: tuple[int, ...], vertex: int, ell: int):
    """Yield all chain multisets (as per-vertex length tuples) of total deficit.

    A chain of length N at vertex v occupies run_vector(v, N, ell); the
    yielded value has one weakly decreasing length tuple per vertex.
    """
    if vertex == ell:
        if all(d == 0 for d in deficit):
            yield ()
        return

    def choices(remaining: tuple[int, ...], cap: int, acc: tuple[int, ...]):
        yield acc, remaining
        for length in range(min(cap, sum(remaining)), 0, -1):
            rv = run_vector(vertex, length, ell)
            if all(r >= v for r, v in zip(remaining, rv)):
                yield from choices(
                    tuple(r - v for r, v in zip(remaining, rv)), length, acc + (length,)
                )

    for acc, remaining in choices(deficit, sum(deficit), ()):
        for rest in fill_with_chains(remaining, vertex + 1, ell):
            yield (acc,) + rest


def admissible_partitions(target: tuple[int, ...]):
    """Yield what ``residues._admissible_partitions`` yields, in its order,
    by the recursive walk: each row's generator yields every extension of
    its partition, longest next row first, and then the partition itself."""
    ell = len(target)

    def walk(parts: tuple[int, ...], deficit: tuple[int, ...], cap: int):
        row = len(parts) + 1
        longest = min(cap, *(deficit[(row - 1 - j) % ell] * ell + j for j in range(ell)))
        left = list(map(operator.sub, deficit, run_vector((row - longest) % ell, longest, ell)))
        for p in range(longest, 0, -1):
            yield from walk(parts + (p,), tuple(left), p)
            left[(row - p) % ell] += 1
        yield parts, deficit

    return walk((), target, sum(target))


def orbit_labels(n: int, ell: int) -> list[OrbitLabel]:
    """Every label of the (ell, n) cone, sorted as ``enumerate_orbit_labels``
    sorts them."""
    target = delta(ell, n)
    out = []
    for m in range(n * ell + 1):
        for lam in enumerate_partitions(m):
            cres = column_residue(lam, ell)
            if max(cres.main) > n:
                continue
            deficit = tuple(t - c for t, c in zip(target.main, cres.main))
            for comps in fill_with_chains(deficit, 0, ell):
                out.append(OrbitLabel(lam, Multipartition(tuple(Partition(c) for c in comps))))
    out.sort(key=OrbitLabel.sort_key, reverse=True)
    return out


def enumerate_rows(labels: list[OrbitLabel], n: int, ell: int, x: int | None = None) -> str:
    """The stdout of ``enumerate-orbits`` for these labels, each row
    rendered from its label alone."""
    if x is not None:
        labels = [lbl for lbl in labels if lbl.lam.weight(ell) <= x]
    target = delta(ell, n)
    lines = []
    for lbl in labels:
        frob = frobenius_diagram_of_partition(lbl.lam, ell)
        marked = ",".join(f"(len={p},mark={o})" for p, o in frob.circles) or "-"
        plain = ",".join(
            f"({i},{length})" for i, comp in enumerate(lbl.nu) for length in comp
        ) or "-"
        dv = lbl.dimension_vector()
        check = "ok" if dv.main == target.main else "BAD"
        lines.append(f"label={lbl}  marked=[{marked}]  plain=[{plain}]  dims={dv}  [{check}]\n")
    lines.append(f"total: {len(labels)}\n")
    return "".join(lines)


def striped_bipartitions(ell: int, xi: DimensionVector) -> list[StripedBipartition]:
    """Every striped bipartition of signature xi, sorted by (lam, epsilon,
    nu): every partition of the total, every colouring of its rows that
    fills xi (colours non-decreasing along rows of equal length), and every
    marking (non-decreasing along rows of equal length and colour) that
    passes the striped ordering."""
    out: list[StripedBipartition] = []

    def colourings(parts: tuple[int, ...]):
        counts = [0] * ell

        def rec(i: int, acc: tuple[int, ...]):
            if i == len(parts):
                if tuple(counts) == xi.main:
                    yield acc
                return
            first = acc[-1] if i and parts[i - 1] == parts[i] else 0
            for colour in range(first, ell):
                rv = run_vector(colour, parts[i], ell)
                if all(c + r <= t for c, r, t in zip(counts, rv, xi.main)):
                    for j in range(ell):
                        counts[j] += rv[j]
                    yield from rec(i + 1, acc + (colour,))
                    for j in range(ell):
                        counts[j] -= rv[j]

        yield from rec(0, ())

    def markings(length: int, colour: int) -> list[int]:
        # nu <= length, nu > -ell, and the mark lands in block 0
        first = -ell + 1 + (length + colour + ell - 1) % ell
        return list(range(first, length + 1, ell))

    for lam in enumerate_partitions(xi.total):
        parts = lam.parts
        for eps in colourings(parts):
            options = [markings(p, e) for p, e in zip(parts, eps)]

            def assign(i: int, acc: tuple[int, ...]):
                if i == len(parts):
                    out.append(StripedBipartition(ell, lam, eps, acc))
                    return
                low = acc[-1] if i and (parts[i - 1], eps[i - 1]) == (parts[i], eps[i]) else -ell
                for value in (v for v in options[i] if v >= low):
                    ok = True
                    for j in range(i):
                        mu_j = parts[j] - acc[j]
                        mu_i = parts[i] - value
                        if not (value < acc[j] + ell and mu_i < mu_j + ell):
                            ok = False
                            break
                    if ok:
                        assign(i + 1, acc + (value,))

            assign(0, ())
    out.sort(key=lambda s: (s.lam.parts, s.epsilon, s.nu))
    return out
