"""The translations as they checked each value three times over, kept as a
test oracle.

``orbit_maps`` certifies each translated value once: the rows that
``striped_from_label`` builds must pass the striped conditions in one pass
and map to the label's own diagrams, and every intermediate value is built
through a private ``_built`` constructor.  This module keeps the route it
replaced, in which every value goes through the public constructors again:
the rows through ``StripedBipartition`` and a pairwise check of the striped
ordering, the forward map's circles through ``FrobeniusCircleDiagram`` and
``CircleDiagram``, whose boxes must add up to the signature, and the
label's partitions through ``FrobeniusPartition``, ``Partition`` and
``Multipartition``.  Its inverse searches no fibre, and it removes rows by
the pairwise scan of ``removal_oracle``, not the library's one pass.
"""

from __future__ import annotations

from removal_oracle import removable_rows_by_pairs

from nilquiver import (
    CircleDiagram,
    Multipartition,
    OrbitLabel,
    Partition,
    StripedBipartition,
    enumerate_orbit_labels,
    frobenius_diagram_of_partition,
)
from nilquiver.circle_diagrams import FrobeniusCircleDiagram
from nilquiver.partitions import FrobeniusPartition


def striped_ordering_holds(ell: int, lam, nu) -> bool:
    """Condition 3 of a striped bipartition, read pair by pair: for i < j
    both nu_j < nu_i + ell and mu_j < mu_i + ell."""
    mu = [p - n for p, n in zip(lam, nu)]
    return all(
        nu[j] < nu[i] + ell and mu[j] < mu[i] + ell
        for i in range(len(nu))
        for j in range(i + 1, len(nu))
    )


def striped(ell: int, lam, epsilon, nu) -> StripedBipartition:
    """The public constructor, with the striped ordering checked again pair
    by pair."""
    s = StripedBipartition(ell, Partition(lam), tuple(epsilon), tuple(nu))
    if not striped_ordering_holds(ell, s.lam.parts, s.nu):
        raise ValueError("the rows violate the striped ordering")
    return s


def striped_to_diagrams(s: StripedBipartition):
    """The forward map's diagrams, each checked by its public constructor,
    and their boxes checked against the signature."""
    removed = removable_rows_by_pairs(s)
    plain = []
    marked = []
    for i, (length, colour, mark_col) in enumerate(s.rows(), start=1):
        if i in removed:
            plain.append((colour, length))
        else:
            marked.append((length, length - mark_col))
    try:
        frob = FrobeniusCircleDiagram(s.ell, tuple(marked))
    except ValueError as exc:
        raise AssertionError(f"surviving rows are not Frobenius: {exc}") from exc
    circ = CircleDiagram(s.ell, tuple(plain))
    if frob.dimension_vector() + circ.dimension_vector() != s.signature():
        raise AssertionError("diagram dimensions must add up to the signature")
    return frob, circ


def striped_label(s: StripedBipartition) -> OrbitLabel:
    """The label of the checked diagrams, its partitions built by their
    public constructors."""
    frob, circ = striped_to_diagrams(s)
    arms = tuple(o for _, o in frob.circles)
    legs = tuple(p - o - 1 for p, o in frob.circles)
    lam = Partition(FrobeniusPartition(legs, arms).partition().parts)
    comps = [[] for _ in range(s.ell)]
    for start, length in circ.circles:
        comps[start].append(length)
    nu = Multipartition(tuple(Partition(sorted(c, reverse=True)) for c in comps))
    return OrbitLabel(lam, nu)


def striped_from_label(label: OrbitLabel) -> StripedBipartition:
    """The rows built from the label's diagrams, checked by the public
    constructor and certified by the checked forward map."""
    ell = label.ell
    frob = frobenius_diagram_of_partition(label.lam, ell)
    circ = CircleDiagram(ell, tuple((i, p) for i, comp in enumerate(label.nu) for p in comp))
    kept = [(p, start, p - o) for start, p, o in frob.chains()]
    rows = list(kept)
    for start, length in circ.circles:
        shorter = [nu for p, _, nu in kept if p <= length][:1]
        longer = [length - p + nu for p, _, nu in kept if p > length][-1:]
        bound = max([0] + shorter + longer)
        rows.append((length, start, bound - (bound - length - start) % ell))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    lam, eps, nu = zip(*rows) if rows else ((), (), ())
    s = striped(ell, lam, eps, nu)
    if striped_label(s) != label:
        raise AssertionError(f"the rows built for {label} map to {striped_label(s)}")
    return s


def enumerate_striped(ell: int, n: int) -> list[StripedBipartition]:
    """The checked images of the (ell, n) cone's labels, sorted by
    (lam, epsilon, nu)."""
    striped_rows = map(striped_from_label, enumerate_orbit_labels(n, ell))
    return sorted(striped_rows, key=lambda s: (s.lam.parts, s.epsilon, s.nu))


def bipartition_to_label(mu: Partition, nu: Partition) -> tuple[Partition, Partition]:
    """The one-vertex translation through the checked rows (lam = mu + nu,
    colours 0, markings mu)."""
    k = max(len(mu), len(nu))
    s = striped(1, [mu[i] + nu[i] for i in range(k)], (0,) * k, [mu[i] for i in range(k)])
    label = striped_label(s)
    return label.lam, label.nu[0]


def label_to_bipartition(eta: Partition, zeta: Partition) -> tuple[Partition, Partition]:
    """The checked preimage's markings and remainders, read back by the
    public ``Partition`` constructor."""
    s = striped_from_label(OrbitLabel(eta, Multipartition((zeta,))))
    return Partition(s.nu), Partition(s.mu)

