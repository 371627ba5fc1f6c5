"""Root-lattice arithmetic for the cyclic quiver.

Dimension vectors of the framed cyclic quiver are pairs (framing, main)
where main is indexed by the cycle vertices 0..ell-1.  Residue vectors of
partitions and multipartitions live in the same lattice under the usual
identification of the vertex basis with the cyclic group.

Two residue readings of a partition appear side by side:

* :func:`residue` counts boxes by content mod ell (row i of the Young
  diagram is the run of contents 1-i, 2-i, ..., lam_i - i);

* :func:`column_residue` counts boxes by negated content, i.e. it is the
  residue of the transpose.  This is the reading realized by the hook
  chains of the framed indecomposable attached to a partition (see
  ``rep_builder``), so it is the one all orbit-label bookkeeping uses.

For a multipartition label the parts of component i record chain modules
anchored at vertex i; :func:`shifted_residue` therefore treats every part
as a run starting at its component's vertex rather than as a row of a
Young diagram.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import count, product

from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    Multipartition,
    Partition,
    enumerate_partitions,
    json_int,
    json_ints,
)


@dataclass(frozen=True, slots=True)
class DimensionVector:
    """Framing multiplicity plus one entry per cycle vertex."""

    framing: int
    main: tuple[int, ...]

    def __post_init__(self):
        main = tuple(int(x) for x in self.main)
        object.__setattr__(self, "main", main)
        if self.framing not in (0, 1):
            raise ValueError("framing multiplicity must be 0 or 1")
        if not main:
            raise ValueError("main part must have at least one vertex")
        if any(x < 0 for x in main):
            raise ValueError(f"negative dimension in {main}")

    @property
    def ell(self) -> int:
        return len(self.main)

    @property
    def total(self) -> int:
        return sum(self.main)

    def __add__(self, other: "DimensionVector") -> "DimensionVector":
        if self.ell != other.ell:
            raise ValueError("cycle length mismatch")
        if self.framing and other.framing:
            raise ValueError("at most one framing summand")
        return DimensionVector(
            self.framing + other.framing,
            tuple(a + b for a, b in zip(self.main, other.main)),
        )

    def __str__(self) -> str:
        return f"({self.framing}; " + ",".join(str(x) for x in self.main) + ")"

    def to_json(self) -> dict:
        return {"framing": self.framing, "main": list(self.main)}

    @classmethod
    def from_json(cls, data: dict) -> "DimensionVector":
        if not isinstance(data, dict):
            raise ValueError(f"dims must be an object with framing and main, not {data!r}")
        return cls(json_int(data["framing"], "framing"), json_ints(data["main"], "main"))


def delta(ell: int, n: int = 1) -> DimensionVector:
    """n copies of the minimal imaginary root (n at every cycle vertex)."""
    return DimensionVector(0, (n,) * ell)


def run_vector(start: int, length: int, ell: int) -> tuple[int, ...]:
    """Vertex counts of the run start, start+1, ..., start+length-1 mod ell."""
    counts = [length // ell] * ell
    for k in range(length % ell):
        counts[(start + k) % ell] += 1
    return tuple(counts)


def runs_vector(runs, ell: int) -> tuple[int, ...]:
    """Vertex counts of a sum of runs, each given as (start, length)."""
    if ell < 1:
        raise ValueError("ell must be positive")
    counts = [0] * ell
    for start, length in runs:
        for j, extra in enumerate(run_vector(start, length, ell)):
            counts[j] += extra
    return tuple(counts)


def residue(lam: Partition, ell: int) -> DimensionVector:
    """Box count of lam by content mod ell: row i is the run from 1 - i."""
    return DimensionVector(0, runs_vector(zip(count(0, -1), lam.parts), ell))


def column_residue(lam: Partition, ell: int) -> DimensionVector:
    """Box count of lam by negated content mod ell: row i is the run from i - lam_i."""
    return DimensionVector(0, runs_vector(((i - p, p) for i, p in enumerate(lam.parts, 1)), ell))


def shifted_residue(nu: Multipartition, ell: int) -> DimensionVector:
    """Total vertex count of the chains recorded by a multipartition label.

    Each part N of component i contributes the run i, i+1, ..., i+N-1.
    """
    if len(nu) != ell:
        raise ValueError("multipartition length must equal ell")
    chains = ((i, part) for i, comp in enumerate(nu) for part in comp)
    return DimensionVector(0, runs_vector(chains, ell))


def dim_framed(lam: Partition, ell: int) -> DimensionVector:
    """Dimension vector of the framed indecomposable attached to lam."""
    return DimensionVector(1, column_residue(lam, ell).main)


def zero_hits(i: int, length: int, ell: int) -> int:
    """How often the chain from vertex i of the given length passes vertex 0."""
    return run_vector(i, length, ell)[0]


@dataclass(frozen=True, slots=True)
class OrbitLabel:
    """Canonical orbit label: a partition plus an ell-multipartition.

    The partition names the framed indecomposable summand; component i of
    the multipartition lists the lengths of the unframed chain summands
    starting at vertex i.
    """

    lam: Partition
    nu: Multipartition

    @property
    def ell(self) -> int:
        return len(self.nu)

    def dimension_vector(self) -> DimensionVector:
        ell = self.ell
        main = tuple(
            a + b
            for a, b in zip(column_residue(self.lam, ell).main, shifted_residue(self.nu, ell).main)
        )
        return DimensionVector(1, main)

    def sort_key(self):
        return (self.lam.parts, tuple(c.parts for c in self.nu))

    def __str__(self) -> str:
        return f"({self.lam};{self.nu})"

    def to_json(self) -> dict:
        return {"lambda": list(self.lam.parts), "nu": [list(c.parts) for c in self.nu]}

    @classmethod
    def from_json(cls, data: dict) -> "OrbitLabel":
        lam = Partition(json_ints(data["lambda"], "lambda"))
        nu = Multipartition(tuple(Partition(json_ints(c, "nu")) for c in data["nu"]))
        return cls(lam, nu)


def chain_fillable(remaining: tuple[int, ...], vertex: int) -> bool:
    """Whether chains starting at the vertices vertex, ..., ell-1 (ell =
    len(remaining)) fill the nonnegative vector remaining exactly.

    They do exactly when remaining[q-1] >= remaining[q] for every q < vertex
    (indices mod ell), and remaining is zero when vertex == ell.  Necessity:
    no chain starts at such a q, so each chain vertex at q follows one at
    q-1 on the same chain.  Sufficiency for vertex < ell: with R = remaining
    the conditions read R[ell-1] >= R[0] >= ... >= R[vertex-1], so
    R[j] - R[j+1] chains of length j+2 from vertex ell-1 for each
    j < vertex (R[vertex-1] of them for the last j) cover every q < vertex
    exactly R[q] times and the start vertex ell-1 R[0] <= R[ell-1] times;
    chains of length 1 at the start vertices fill the rest.
    """
    if vertex == len(remaining):
        return not any(remaining)
    return all(remaining[q - 1] >= remaining[q] for q in range(vertex))


def chain_fills(ell: int, caps: tuple[int, ...], max_count: int = DEFAULT_ENUMERATION_CAP):
    """The fill search, as the pair of memoized functions ``(tally, fills)``.

    ``fills(remaining, vertex)`` lists every fill of the nonnegative vector
    remaining by chains starting at the vertices vertex, ..., ell-1, each
    chain from a vertex v of length at most ``caps[v]``, as one partition
    of chain lengths per vertex, largest lengths tuple first.
    ``tally(remaining, vertex)`` is the number of those fills, or
    ``max_count + 1`` when there are more than ``max_count`` of them.

    A chain of length N at vertex v occupies run_vector(v, N, ell), read
    from a table kept per search.  The search only ever enters a remainder
    that :func:`chain_fillable` accepts: a chain from v covers q-1 at least
    as often as q for every q != v, so a rise at some q < v never goes away,
    and a choice at vertex v is dropped, with all its extensions, as soon
    as its remainder has one.  Without a binding cap every remainder
    entered can be completed; a cap below the lengths that would complete
    it only leaves its fill list empty.  All copies of one length are taken
    in one loop, so the search nests once per distinct length, never once
    per chain.

    Each state (remainder, vertex) has one ``(count, choices)`` entry,
    written by ``tally``, which generates the state's choices, pairs (chain
    lengths at the vertex as a ``Partition``, rest), once: it records each
    choice as it adds the count of the rest, and stops once the sum passes
    ``max_count``.  Where no cap binds, each choice completes to some fill,
    so at most ``max_count + 1`` are tried; where one binds, a choice can
    complete to no fill, and only the number of choices tried bounds the
    work.  ``fills`` raises ``ValueError`` from the state's count past
    ``max_count``, else builds the list from the recorded choices,
    memoized per state; from vertex 0 it returns ``Multipartition``
    objects.
    """
    done = ((0,) * ell, ell)
    tallies: dict[tuple[tuple[int, ...], int], tuple[int, list]] = {done: (1, [])}
    tails: dict[tuple[tuple[int, ...], int], list] = {done: [()]}
    steps: dict[tuple[int, int], tuple[int, ...]] = {}  # run_vector(vertex, length, ell)

    def collect(vertex, remaining, total, cap, acc):
        """Yield (lengths, rest) for every chain multiset at vertex with
        lengths at most cap that leaves a rest fillable from vertex + 1,
        largest lengths first and acc itself last."""
        for length in range(min(cap, total), 0, -1):
            step = steps.get((vertex, length))
            if step is None:
                step = steps[vertex, length] = run_vector(vertex, length, ell)
            rests = [remaining]  # rests[k]: the remainder after k copies
            while min(rest := tuple(map(operator.sub, rests[-1], step))) >= 0:
                if not chain_fillable(rest, vertex):
                    break
                rests.append(rest)
            for k in range(len(rests) - 1, 0, -1):
                yield from collect(
                    vertex, rests[k], total - k * length, length - 1, acc + (length,) * k
                )
        if chain_fillable(remaining, vertex + 1):
            # acc is weakly decreasing and positive by construction
            yield Partition._built(acc), remaining

    def tally(remaining: tuple[int, ...], vertex: int) -> int:
        entry = tallies.get((remaining, vertex))
        if entry is None:
            found = 0
            tried = []
            for choice in collect(vertex, remaining, sum(remaining), caps[vertex], ()):
                tried.append(choice)
                found += tally(choice[1], vertex + 1)
                if found > max_count:
                    found = max_count + 1
                    break
            entry = tallies[(remaining, vertex)] = (found, tried)
        return entry[0]

    def fills(remaining: tuple[int, ...], vertex: int) -> list:
        found = tails.get((remaining, vertex))
        if found is None:
            if tally(remaining, vertex) > max_count:
                raise ValueError(f"enumeration exceeds the cap of {max_count}")
            found = []
            for lengths, rest in tallies[(remaining, vertex)][1]:
                head = (lengths,)
                found.extend([head + tail for tail in fills(rest, vertex + 1)])
            if not vertex:
                found = [Multipartition._built(fill) for fill in found]
            tails[(remaining, vertex)] = found
        return found

    return tally, fills


def _admissible_partitions(target: tuple[int, ...]):
    """Yield (parts, target - column_residue) for every partition whose
    column residue is at most target at each vertex, parts lexicographically
    decreasing (so a partition comes after all of its extensions).

    Row i (1-based) of length p holds the negated contents i-1, ..., i-p.
    Adding boxes only raises the residue, so a row that overflows some
    vertex at length p overflows it at every greater length, and so does
    every partition that extends it.  Box k of the row lands on vertex
    (i-1-k) mod ell after k // ell earlier boxes there, so the first box
    that overflows vertex (i-1-j) mod ell is box deficit*ell + j, and the
    longest row that fits is read off without growing it box by box.

    The walk keeps an explicit stack of frames [parts, deficit, left, p],
    one per partition whose extensions are still being walked: its next
    row is p boxes long and leaves left.  A frame is yielded when its
    rows down to length 1 are done, so each partition is yielded once, not
    passed up through one generator per row."""
    ell = len(target)
    stack = []
    parts, deficit, cap = (), target, sum(target)
    while True:
        row = len(parts) + 1
        p = min([cap] + [deficit[(row - 1 - j) % ell] * ell + j for j in range(ell)])
        if p:
            left = list(map(operator.sub, deficit, run_vector((row - p) % ell, p, ell)))
            stack.append([parts, deficit, left, p])
        else:
            yield parts, deficit
            while stack and not stack[-1][3]:
                parts, deficit, _, _ = stack.pop()
                yield parts, deficit
            if not stack:
                return
        # shrink the top frame's row from its longest, giving each box back
        # to its vertex, and walk the extensions by that row
        top = stack[-1]
        parts, deficit, left, p = top
        top[3] = p - 1
        cap, deficit = p, tuple(left)
        left[(len(parts) + 1 - p) % ell] += 1
        parts += (p,)


def orbit_label_groups(
    main: tuple[int, ...], max_count: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[Partition, tuple[int, ...], list[Multipartition]]]:
    """The labels with dimension vector (1; main), grouped by partition:
    one (lam, deficit, fills) per admissible partition lam, largest first,
    where deficit = main - column_residue(lam) and fills lists the
    multipartitions nu with shifted_residue(nu) = deficit, largest first.
    The labels (lam; nu) in this order are sorted by
    :meth:`OrbitLabel.sort_key`, largest first, and partitions with equal
    deficits share one fills list object.

    The residue equation column_residue(lam) + shifted_residue(nu) = main
    bounds lam, so the search is finite and complete.  The admissible
    partitions are walked in the output order, and each one's deficit is
    filled with chains by :func:`chain_fills`, whose caps sum(main) never
    bind: component v of nu lists the chain lengths at vertex v.  The fills
    come largest lengths tuple first, so the labels come out sorted,
    without a sort, and each deficit's multipartitions are listed once,
    however many partitions leave it.

    The labels are counted before any group is built: the walk sums the
    fill counts of the deficits (``chain_fills`` keeps one count-and-choices
    entry per state, its choices generated once and stopped past the cap,
    and here every choice completes to labels) and raises ``ValueError`` as
    soon as the sum passes ``max_count``.  So the error is raised exactly
    when there are more than ``max_count`` labels (``max_count`` labels are
    returned whole).  Chains of length 1 fill any deficit, so every
    admissible partition adds at least one label, and the walk stops within
    ``max_count + 1`` partitions too.  The listing then reads the same
    memoized choices, so a vector under the cap is searched once.
    """
    ell = len(main)
    tally, fills = chain_fills(ell, (sum(main),) * ell, max_count)
    walk = []
    total = 0
    for parts, deficit in _admissible_partitions(main):
        total += tally(deficit, 0)
        if total > max_count:
            raise ValueError(f"enumeration exceeds the cap of {max_count}")
        walk.append((parts, deficit))
    # the walk yields weakly decreasing tuples of positive parts
    return [(Partition._built(parts), deficit, fills(deficit, 0)) for parts, deficit in walk]


def enumerate_orbit_labels(
    n: int, ell: int, max_count: int = DEFAULT_ENUMERATION_CAP
) -> list[OrbitLabel]:
    """All labels with dimension vector (1; n*delta): the groups of
    :func:`orbit_label_groups`, flattened in their order."""
    if n < 0 or ell < 1:
        raise ValueError("need n >= 0 and ell >= 1")
    groups = orbit_label_groups((n,) * ell, max_count)
    return [OrbitLabel(lam, nu) for lam, _, fills in groups for nu in fills]


def chain_counts(ell: int, caps: tuple[int, ...], target: tuple[int, ...]) -> dict:
    """For every vector t <= target, the number of multisets of chains
    (v, L), L <= caps[v], whose vectors run_vector(v, L, ell) sum to t.

    Each chain is one item of an unbounded knapsack over the box of
    vectors below target; the box is walked in lexicographic order, so
    t - item comes before t and may already hold copies of the item.  This
    count lists no fill and shares no code with :func:`chain_fills` or the
    admissible-partition walk, so it checks both."""
    top = sum(target)
    items = [run_vector(v, L, ell) for v in range(ell) for L in range(1, min(caps[v], top) + 1)]
    box = list(product(*(range(t + 1) for t in target)))
    counts = dict.fromkeys(box, 0)
    counts[(0,) * ell] = 1
    for item in items:
        for t in box:
            rest = tuple(a - b for a, b in zip(t, item))
            if min(rest) >= 0:
                counts[t] += counts[rest]
    return counts


def cone_count(n: int, ell: int) -> int:
    """The number of labels of the (ell, n) cone: the fills of n*delta -
    column_residue(lam), summed over the partitions lam whose column
    residue is at most n at each vertex."""
    counts = chain_counts(ell, (n * ell,) * ell, (n,) * ell)
    lams = (lam for m in range(n * ell + 1) for lam in enumerate_partitions(m))
    cres = (column_residue(lam, ell).main for lam in lams)
    return sum(counts[tuple(n - c for c in r)] for r in cres if max(r) <= n)


def _beads(lam: Partition, m: int) -> list[int]:
    """The m >= len(lam) beta-numbers lam_i + m - 1 - i of lam, largest first."""
    return [lam[i] + (m - 1 - i) for i in range(m)]


def _partition_of_beads(beads: list[int]) -> Partition:
    """The partition whose beta-numbers are the distinct, decreasing beads."""
    m = len(beads)
    return Partition(b - (m - 1 - i) for i, b in enumerate(beads))


def ell_quotient_core(lam: Partition, ell: int) -> tuple[Partition, Multipartition]:
    """Core and quotient of a partition via beta-numbers on ell runners.

    First-column beta-number convention with the bead count normalized to a
    multiple of ell, which makes both outputs independent of the padding.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    m = ell * ((max(len(lam), 1) + ell - 1) // ell)
    runners: list[list[int]] = [[] for _ in range(ell)]
    for b in _beads(lam, m):
        runners[b % ell].append(b // ell)
    quotient = Multipartition(tuple(_partition_of_beads(positions) for positions in runners))
    core = (ell * p + r for r, positions in enumerate(runners) for p in range(len(positions)))
    return _partition_of_beads(sorted(core, reverse=True)), quotient


def from_core_quotient(core: Partition, quotient: Multipartition, ell: int) -> Partition:
    """Inverse of :func:`ell_quotient_core`."""
    if len(quotient) != ell:
        raise ValueError("quotient length must equal ell")
    if any(c for c in ell_quotient_core(core, ell)[1]):
        raise ValueError("first argument is not an ell-core")
    rows = max(len(core), 1) + ell * (quotient.size + max(len(c) for c in quotient) + 1)
    m = ell * ((rows + ell - 1) // ell)
    counts = [0] * ell
    for b in _beads(core, m):
        counts[b % ell] += 1
    beads = []
    for r, (c, comp) in enumerate(zip(counts, quotient)):
        if len(comp) > c:
            raise ValueError("quotient component too long for the bead count")
        beads.extend(ell * p + r for p in _beads(comp, c))
    return _partition_of_beads(sorted(beads, reverse=True))
