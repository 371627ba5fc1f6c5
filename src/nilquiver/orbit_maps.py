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

Where values are checked: each item is checked once.  Values from outside
the program go through the public constructors (``StripedBipartition``,
its ``from_json``, ``Partition``, ``OrbitLabel.from_json``), which check
every condition; the striped conditions are read in one pass over the rows
by :func:`_striped_error`.  A striped bipartition built by
:func:`striped_from_label` is certified exactly once: its rows pass
:func:`_striped_error`, and the forward map :func:`striped_label` sends
them back to the label.  Everything else is built through the private
``_built`` constructors without checks: the pair of partitions that
:func:`bipartition_as_striped` reads as ell = 1 rows, which are striped by
construction, and the diagrams and label of the forward map, which are
valid on striped rows by the translation theorem (Achar and Henderson).
The tests keep the route that checked each value three times over as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circle_diagrams import (
    CircleDiagram,
    FrobeniusCircleDiagram,
    frobenius_diagram_of_partition,
)
from .partitions import DEFAULT_ENUMERATION_CAP, Multipartition, Partition, json_ints
from .residues import DimensionVector, OrbitLabel, orbit_label_groups, runs_vector


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

    The constructor coerces its fields and checks them all; ``_built``
    takes rows that are already known to be striped.
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
        problem = _striped_error(ell, lam.parts, self.epsilon, self.nu)
        if problem:
            raise ValueError(problem)

    @classmethod
    def _built(
        cls, ell: int, lam: Partition, epsilon: tuple[int, ...], nu: tuple[int, ...]
    ) -> "StripedBipartition":
        """Rows computed here (tuples of ints, one entry per part, colours in
        0..ell-1, markings at most the row lengths) that are striped by
        construction or by a certificate, taken without checking them again."""
        s = object.__new__(cls)
        object.__setattr__(s, "ell", ell)
        object.__setattr__(s, "lam", lam)
        object.__setattr__(s, "epsilon", epsilon)
        object.__setattr__(s, "nu", nu)
        return s

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


def _striped_error(ell: int, lam: tuple[int, ...], epsilon, nu) -> str | None:
    """The first striped condition that the rows (lam, epsilon, nu) break,
    as a message, or None when they are striped.

    Condition 3 holds for row j against every row above it exactly when it
    holds against the least nu and the least mu above it, so one pass with
    running minima (row 1 compared with itself passes) reads every pair."""
    if not lam:
        return None
    low_nu, low_mu = nu[0], lam[0] - nu[0]
    for i, (p, e, n) in enumerate(zip(lam, epsilon, nu), start=1):
        m = p - n
        if (e + m) % ell:
            return f"mark of row {i} does not sit in block 0"
        if n <= -ell:
            return f"marking value of row {i} below -ell"
        if n >= low_nu + ell or m >= low_mu + ell:
            return f"row {i} violates the striped ordering with a row above it"
        if n < low_nu:
            low_nu = n
        if m < low_mu:
            low_mu = m
    return None


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
    lam, eps, nu = s.lam.parts, s.epsilon, s.nu
    removed = set()
    # (b) in one pass from the bottom: the largest marking below, the kind
    # (lam_j, epsilon_j) of a row that has it, and the largest marking below
    # among the rows of other kinds
    top = other = float("-inf")
    top_kind = None
    for i in range(len(lam) - 1, -1, -1):
        n, kind = nu[i], (lam[i], eps[i])
        if kind == top_kind:
            if other >= n:
                removed.add(i + 1)
            if n > top:
                top = n
        else:
            if top >= n:
                removed.add(i + 1)
            if n > top:
                other, top, top_kind = top, n, kind
            elif n > other:
                other = n
    low_mu = float("inf")  # the least mu of the rows above, which (c) reads
    for i in range(len(lam)):
        m = lam[i] - nu[i]
        if nu[i] <= 0 or low_mu <= m:
            removed.add(i + 1)
        if m < low_mu:
            low_mu = m
    return frozenset(removed)


def striped_to_diagrams(
    s: StripedBipartition,
) -> tuple[FrobeniusCircleDiagram, CircleDiagram]:
    """Split a striped bipartition into its marked and unmarked diagrams.

    Removed rows become plain circles (start epsilon_i, length lam_i); the
    surviving rows become marked circles of length lam_i with the mark at
    offset mu_i, which lands in block 0 by the striped conditions.  On
    striped rows the surviving ones have strictly decreasing offsets and
    follower counts, so they come longest first and form a Frobenius
    diagram, and the circles' boxes add up to the signature; both diagrams
    are therefore built without checks.
    """
    removed = removable_rows_cyclic(s)
    plain = []
    marked = []
    for i, (length, colour, mark_col) in enumerate(zip(s.lam.parts, s.epsilon, s.nu), start=1):
        if i in removed:
            plain.append((colour, length))
        else:
            marked.append((length, length - mark_col))
    return (
        FrobeniusCircleDiagram._built(s.ell, tuple(marked)),
        CircleDiagram._built(s.ell, plain),
    )


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


def _rows_of_diagrams(
    frob: FrobeniusCircleDiagram, circ: CircleDiagram
) -> list[tuple[int, int, int]]:
    """The rows (length, colour, marking) that :func:`striped_from_label`
    builds from a label's diagrams, sorted by (-length, colour, marking).

    A marked circle (length p, mark offset o) is a surviving row
    (p, -o mod ell, p - o).  A plain circle (start s, length p) is a removed
    row (p, s, nu), nu the largest value = p + s mod ell that is at most the
    largest of 0, the marking of the first surviving row of length <= p,
    and p - mu of the last surviving row longer than p.  Rows of equal
    length are sorted by (colour, marking), one fixed order for each
    multiset of rows."""
    ell, marked = frob.ell, frob.circles
    rows = [(p, -o % ell, p - o) for p, o in marked]
    # both diagrams list their circles longest first, so the surviving rows
    # longer than a plain circle are the first j, for j growing as we go
    j, k = 0, len(marked)
    for start, length in circ.circles:
        while j < k and marked[j][0] > length:
            j += 1
        bound = max(
            0,
            marked[j][0] - marked[j][1] if j < k else 0,
            length - marked[j - 1][1] if j else 0,
        )
        rows.append((length, start, bound - (bound - length - start) % ell))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    return rows


def striped_from_label(label: OrbitLabel) -> StripedBipartition:
    """Inverse of :func:`striped_label`: the rows of
    :func:`_rows_of_diagrams` on the label's :func:`diagrams_of_label`,
    certified once by :func:`_certified_striped`.
    """
    return _certified_striped(label, *diagrams_of_label(label))


def _certified_striped(
    label: OrbitLabel, frob: FrobeniusCircleDiagram, circ: CircleDiagram
) -> StripedBipartition:
    """The rows of :func:`_rows_of_diagrams` on the label's diagrams, certified
    once.  They must pass :func:`_striped_error`, and the forward map
    :func:`striped_label` must send them back to the label; otherwise
    ``AssertionError`` is raised.  Colours in range, markings at most the
    row lengths and the row order hold by construction, so no constructor
    checks the answer again.
    """
    rows = _rows_of_diagrams(frob, circ)
    lam, eps, nu = zip(*rows) if rows else ((), (), ())
    problem = _striped_error(label.ell, lam, eps, nu)
    if problem:
        raise AssertionError(f"the rows built for {label} are not striped: {problem}")
    s = StripedBipartition._built(label.ell, Partition._built(lam), eps, nu)
    image = striped_label(s)
    if image != label:
        raise AssertionError(f"the rows built for {label} map to {image}")
    return s


# ---------------------------------------------------------------------------
# the one-vertex case
# ---------------------------------------------------------------------------


def bipartition_as_striped(mu: Partition, nu: Partition) -> StripedBipartition:
    """Encode a one-vertex bipartition as a striped bipartition: rows of
    lam = mu + nu, all colours 0, markings mu.

    At ell = 1 the striped conditions ask only that the markings mu and
    the remainders nu both decrease weakly, which a pair of partitions
    does, so the rows are built without checks."""
    k = max(len(mu), len(nu))
    lam = Partition._built(tuple(mu[i] + nu[i] for i in range(k)))
    return StripedBipartition._built(1, lam, (0,) * k, tuple(mu[i] for i in range(k)))


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
    markings and remainders are nonnegative and both decrease weakly, so
    dropping their zeros gives two partitions that rebuild its rows
    exactly, and ``striped_from_label``'s certificate is the forward
    map's."""
    s = striped_from_label(OrbitLabel(eta, Multipartition((zeta,))))
    mu = Partition._built(tuple(x for x in s.nu if x))
    nu = Partition._built(tuple(x for x in s.mu if x))
    return mu, nu


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_striped(
    ell: int, xi: DimensionVector, max_count: int = DEFAULT_ENUMERATION_CAP
) -> list[StripedBipartition]:
    """All striped bipartitions with the given signature, sorted by
    (lam, epsilon, nu): the images under :func:`striped_from_label`, each
    certified by the forward map, of the orbit labels with dimension
    vector (1; xi).  The labels come grouped by partition, so each
    partition's marked diagram is built once per group.  ``striped_label``
    is a bijection at fixed signature, so ``ValueError`` is raised exactly
    when the labels pass ``max_count``, and they are counted before any is
    built.
    """
    if xi.ell != ell:
        raise ValueError("signature has the wrong cycle length")
    striped = []
    for lam, _, fills in orbit_label_groups(xi.main, max_count):
        frob = frobenius_diagram_of_partition(lam, ell)
        striped.extend(
            _certified_striped(OrbitLabel(lam, nu), frob, CircleDiagram.from_multipartition(nu))
            for nu in fills
        )
    return sorted(striped, key=lambda s: (s.lam.parts, s.epsilon, s.nu))
