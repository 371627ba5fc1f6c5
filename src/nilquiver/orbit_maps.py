"""Translations between the different orbit labellings.

Three label styles coexist for orbits in the framed nilpotent cone:

* the normal-form bipartition (mu; nu) used for a single Jordan matrix with
  a marked vector, where row i of the matrix is marked in column mu_i
  (ell = 1 only);
* the striped bipartition (lambda, epsilon, nu): a coloured partition whose
  row i starts in block epsilon_i, together with a marking function nu
  giving the marked column of each row (cyclic case);
* the canonical label (lambda; nu) naming the framed indecomposable summand
  and the unframed chain summands directly.

A striped bipartition translates into a canonical label by deleting its
"removable" rows, which split off as unframed chains, and reading the
remaining rows as a marked circle diagram.  A normal-form bipartition is
the striped bipartition of ell = 1 whose markings are mu, so one
row-removal rule serves both.  The inverses are built from the label's
circle diagrams, not found by search, and are certified by their forward
maps; the striped bipartitions of a signature are enumerated as the image
of the orbit labels under the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circle_diagrams import (
    CircleDiagram,
    FrobeniusCircleDiagram,
    frobenius_diagram_of_partition,
)
from .partitions import DEFAULT_ENUMERATION_CAP, Multipartition, Partition, json_ints
from .residues import DimensionVector, OrbitLabel, _orbit_labels, runs_vector


# ---------------------------------------------------------------------------
# striped bipartitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StripedBipartition:
    """A coloured partition with a marking function.

    ``lam`` lists the row lengths, ``epsilon`` the starting block of each
    row, and ``nu`` the marked column of each row (``nu[i] <= lam[i]``;
    rows with ``nu[i] <= 0`` are unmarked).  The derived tuple
    ``mu = lam - nu`` counts the boxes to the right of each mark; since a
    row's chain reads the row from its last box, mu_i is the marked
    vertex's offset from the start of the chain.

    Validity ("striped") requires:

    1. each mark sits in block 0, i.e. epsilon_i + (lam_i - nu_i) = 0
       mod ell; this also pins the canonical value of an unmarked row's
       nu_i inside (-ell, 0];
    2. nu_i > -ell for every row;
    3. for i < j both nu_j < nu_i + ell and mu_j < mu_i + ell.
    """

    ell: int
    lam: Partition
    epsilon: tuple[int, ...]
    nu: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "epsilon", tuple(int(x) for x in self.epsilon))
        object.__setattr__(self, "nu", tuple(int(x) for x in self.nu))
        ell, lam = self.ell, self.lam
        if ell < 1:
            raise ValueError("ell must be positive")
        k = len(lam)
        if len(self.epsilon) != k or len(self.nu) != k:
            raise ValueError("epsilon and nu must have one entry per part")
        if any(not 0 <= e < ell for e in self.epsilon):
            raise ValueError("colours must lie in 0..ell-1")
        if any(n > p for n, p in zip(self.nu, lam.parts)):
            raise ValueError("marking function exceeds a row length")
        mu = self.mu
        for i in range(k):
            if (self.epsilon[i] + mu[i]) % ell != 0:
                raise ValueError(f"mark of row {i + 1} does not sit in block 0")
            if self.nu[i] <= -ell:
                raise ValueError(f"marking value of row {i + 1} below -ell")
        for i in range(k):
            for j in range(i + 1, k):
                if not (self.nu[j] < self.nu[i] + ell and mu[j] < mu[i] + ell):
                    raise ValueError(f"rows {i + 1},{j + 1} violate the striped ordering")

    @property
    def mu(self) -> tuple[int, ...]:
        return tuple(p - n for p, n in zip(self.lam.parts, self.nu))

    def __len__(self) -> int:
        return len(self.lam)

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        """(length, colour, marked column) per row."""
        return tuple(zip(self.lam.parts, self.epsilon, self.nu))

    def signature(self) -> DimensionVector:
        return signature(self.lam, self.epsilon, self.ell)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "epsilon": list(self.epsilon),
            "nu": list(self.nu),
        }

    @classmethod
    def from_json(cls, data: dict, ell: int) -> "StripedBipartition":
        return cls(
            ell,
            Partition(json_ints(data["lambda"], "lambda")),
            json_ints(data["epsilon"], "epsilon"),
            json_ints(data["nu"], "nu"),
        )


def signature(lam: Partition, epsilon, ell: int) -> DimensionVector:
    """Box count of the coloured diagram: box (i, j) has colour
    epsilon_i + (lam_i - j) mod ell, so row i is the run starting at
    epsilon_i read from its last box."""
    epsilon = tuple(int(x) for x in epsilon)
    if len(epsilon) != len(lam):
        raise ValueError("one colour per part is required")
    return DimensionVector(0, runs_vector(zip(epsilon, lam.parts), ell))


# ---------------------------------------------------------------------------
# removable rows and the cyclic translation
# ---------------------------------------------------------------------------


def removable_rows_cyclic(s: StripedBipartition) -> frozenset[int]:
    """Rows of a striped bipartition that split off as unframed chains.

    Row i is removable (1-based) when

    (a) nu_i <= 0 (the row is unmarked), or
    (b) some later row j has nu_j >= nu_i with (lam_j, epsilon_j)
        different from (lam_i, epsilon_i), or
    (c) some earlier row j has mu_j <= mu_i.
    """
    lam, eps, nu, mu = s.lam.parts, s.epsilon, s.nu, s.mu
    k = len(lam)
    removed = set()
    for i in range(k):
        if nu[i] <= 0:
            removed.add(i + 1)
            continue
        if any(
            nu[j] >= nu[i] and (lam[j], eps[j]) != (lam[i], eps[i]) for j in range(i + 1, k)
        ):
            removed.add(i + 1)
            continue
        if any(mu[j] <= mu[i] for j in range(i)):
            removed.add(i + 1)
    return frozenset(removed)


def striped_to_diagrams(
    s: StripedBipartition,
) -> tuple[FrobeniusCircleDiagram, CircleDiagram]:
    """Split a striped bipartition into its marked and unmarked diagrams.

    Removed rows become plain circles (start epsilon_i, length lam_i); the
    surviving rows become marked circles of length lam_i with the mark at
    offset mu_i, which lands in block 0 by the striped conditions.
    """
    removed = removable_rows_cyclic(s)
    plain = []
    marked = []
    for i, (length, colour, mark_col) in enumerate(s.rows(), start=1):
        if i in removed:
            plain.append((colour, length))
        else:
            marked.append((length, length - mark_col))
    try:
        frob = FrobeniusCircleDiagram(s.ell, tuple(marked))
    except ValueError as exc:  # pragma: no cover - guards internal consistency
        raise AssertionError(f"surviving rows are not Frobenius: {exc}") from exc
    circ = CircleDiagram(s.ell, tuple(plain))
    total = frob.dimension_vector() + circ.dimension_vector()
    if total != s.signature():
        raise AssertionError("diagram dimensions must add up to the signature")
    return frob, circ


def label_of_diagrams(frob: FrobeniusCircleDiagram, circ: CircleDiagram) -> OrbitLabel:
    """Read off the canonical label: the marked diagram names the framed
    partition and the plain circles are grouped by start block."""
    if frob.ell != circ.ell:
        raise ValueError("diagrams live over different cycle lengths")
    return OrbitLabel(frob.partition(), circ.multipartition())


def diagrams_of_label(label: OrbitLabel) -> tuple[FrobeniusCircleDiagram, CircleDiagram]:
    """Inverse of :func:`label_of_diagrams`."""
    ell = label.ell
    return (
        frobenius_diagram_of_partition(label.lam, ell),
        CircleDiagram.from_multipartition(label.nu),
    )


def striped_label(s: StripedBipartition) -> OrbitLabel:
    return label_of_diagrams(*striped_to_diagrams(s))


def striped_from_label(label: OrbitLabel) -> StripedBipartition:
    """Inverse of :func:`striped_label`, built from :func:`diagrams_of_label`.

    A marked circle (length p, mark offset o) is a surviving row
    (p, -o mod ell, p - o).  A plain circle (start s, length p) is a removed
    row (p, s, nu), nu the largest value = p + s mod ell that is at most the
    largest of 0, the marking of the first surviving row of length <= p,
    and p - mu of the last surviving row longer than p.  Rows of equal
    length are sorted by (colour, marking), one fixed order for each
    multiset of rows.  The answer is certified by the forward map.
    """
    ell = label.ell
    frob, circ = diagrams_of_label(label)
    kept = [(p, start, p - o) for start, p, o in frob.chains()]
    rows = list(kept)
    for start, length in circ.circles:
        shorter = [nu for p, _, nu in kept if p <= length][:1]
        longer = [length - p + nu for p, _, nu in kept if p > length][-1:]
        bound = max([0] + shorter + longer)
        rows.append((length, start, bound - (bound - length - start) % ell))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    lam, eps, nu = zip(*rows) if rows else ((), (), ())
    s = StripedBipartition(ell, Partition(lam), eps, nu)
    if striped_label(s) != label:
        raise AssertionError(f"the rows built for {label} map to {striped_label(s)}")
    return s


# ---------------------------------------------------------------------------
# the one-vertex case
# ---------------------------------------------------------------------------


def bipartition_as_striped(mu: Partition, nu: Partition) -> StripedBipartition:
    """Encode a one-vertex bipartition as a striped bipartition: rows of
    lam = mu + nu, all colours 0, markings mu."""
    k = max(len(mu), len(nu))
    lam = Partition(mu[i] + nu[i] for i in range(k))
    return StripedBipartition(1, lam, (0,) * k, tuple(mu[i] for i in range(k)))


def bipartition_to_label(mu: Partition, nu: Partition) -> tuple[Partition, Partition]:
    """Translate a normal-form bipartition into (framed partition, chain parts).

    This is the ell = 1 case of :func:`striped_label`: the bipartition is
    read as the striped rows of :func:`bipartition_as_striped`, the
    removable rows contribute their full lengths as unframed chains, and
    the surviving rows (legs, arms) = (mu - 1, nu) are the Frobenius
    coordinates of the framed partition.
    """
    label = striped_label(bipartition_as_striped(mu, nu))
    return label.lam, label.nu[0]


def label_to_bipartition(eta: Partition, zeta: Partition) -> tuple[Partition, Partition]:
    """Inverse of :func:`bipartition_to_label`: the ell = 1 striped preimage
    of the label, read back through :func:`bipartition_as_striped` (markings
    mu, boxes right of the marks nu).  At ell = 1 a striped bipartition's
    markings and remainders both decrease weakly, so those two partitions
    rebuild its rows exactly, and ``striped_from_label``'s certificate is
    the forward map's."""
    s = striped_from_label(OrbitLabel(eta, Multipartition((zeta,))))
    return Partition(s.nu), Partition(s.mu)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_striped(
    ell: int, xi: DimensionVector, max_count: int = DEFAULT_ENUMERATION_CAP
) -> list[StripedBipartition]:
    """All striped bipartitions with the given signature, sorted by
    (lam, epsilon, nu): the images under :func:`striped_from_label`, each
    certified by the forward map, of the orbit labels with dimension
    vector (1; xi).  ``striped_label`` is a bijection at fixed signature,
    so ``ValueError`` is raised exactly when the labels pass ``max_count``,
    and they are counted before any is built.
    """
    if xi.ell != ell:
        raise ValueError("signature has the wrong cycle length")
    striped = map(striped_from_label, _orbit_labels(xi.main, max_count))
    return sorted(striped, key=lambda s: (s.lam.parts, s.epsilon, s.nu))
