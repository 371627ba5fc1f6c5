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

from dataclasses import dataclass
from itertools import count

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

    def dominates(self, other: "DimensionVector") -> bool:
        """Componentwise >= on the main part (framing ignored)."""
        if self.ell != other.ell:
            raise ValueError("cycle length mismatch")
        return all(a >= b for a, b in zip(self.main, other.main))

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
    counts = [0] * ell
    for start, length in runs:
        for j, extra in enumerate(run_vector(start, length, ell)):
            counts[j] += extra
    return tuple(counts)


def residue(lam: Partition, ell: int) -> DimensionVector:
    """Box count of lam by content mod ell: row i is the run from 1 - i."""
    if ell < 1:
        raise ValueError("ell must be positive")
    return DimensionVector(0, runs_vector(zip(count(0, -1), lam.parts), ell))


def column_residue(lam: Partition, ell: int) -> DimensionVector:
    """Box count of lam by negated content mod ell (residue of the transpose)."""
    return residue(lam.transpose(), ell)


def shifted_residue(nu: Multipartition, ell: int) -> DimensionVector:
    """Total vertex count of the chains recorded by a multipartition label.

    Each part N of component i contributes the run i, i+1, ..., i+N-1.
    """
    if len(nu) != ell:
        raise ValueError("multipartition length must equal ell")
    chains = ((i, part) for i, comp in enumerate(nu) for part in comp)
    return DimensionVector(0, runs_vector(chains, ell))


def dim_chain(i: int, length: int, ell: int) -> DimensionVector:
    """Dimension vector of the chain module supported on i, ..., i+length-1."""
    if not (0 <= i < ell):
        raise ValueError("start vertex out of range")
    if length < 1:
        raise ValueError("chain length must be positive")
    return DimensionVector(0, run_vector(i, length, ell))


def dim_framed(lam: Partition, ell: int) -> DimensionVector:
    """Dimension vector of the framed indecomposable attached to lam."""
    return DimensionVector(1, column_residue(lam, ell).main)


def zero_hits(i: int, length: int, ell: int) -> int:
    """How often the chain from vertex i of the given length passes vertex 0."""
    return run_vector(i, length, ell)[0]


def chain_allowed(i: int, length: int, ell: int, x: int) -> bool:
    """Whether the chain module satisfies the degree-x nilpotency bound."""
    if x < 1:
        raise ValueError("x must be positive")
    return zero_hits(i, length, ell) <= x


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


def enumerate_orbit_labels(
    n: int, ell: int, max_count: int = DEFAULT_ENUMERATION_CAP
) -> list[OrbitLabel]:
    """All labels (lam; nu) whose total dimension vector is n at every vertex.

    The residue equation column_residue(lam) + shifted_residue(nu) = n*delta
    bounds |lam| by n*ell, so the search is finite and complete.  For each
    lam the deficit n*delta - column_residue(lam) is filled with chains,
    vertex by vertex: a chain of length N at vertex v occupies
    run_vector(v, N, ell), and component v of nu lists the lengths chosen
    at v in weakly decreasing order.

    Many partitions leave the same deficit, and many vertex-0 choices leave
    the same remainder, so the fills from vertex 1 onward (the tails) are
    memoized per (remaining deficit, vertex) for the duration of the call.
    The vertex-0 choices stay lazy: labels are emitted one vertex-0 choice
    at a time, so the cap is checked as the output grows.

    ``ValueError`` is raised exactly when the cone has more than
    ``max_count`` labels (a cone of ``max_count`` labels is returned
    whole), or when some size up to n*ell has more than ``max_count``
    partitions.  It fires as soon as the output would pass the cap, or as
    soon as one memoized tail list passes it: a tail list is only built for
    a remainder some prefix reaches, and each of its tails completes that
    prefix to a different label.

    Each distinct chain-length tuple becomes one shared ``Partition``.  The
    result is sorted by :meth:`OrbitLabel.sort_key`, largest first.
    """
    if n < 0 or ell < 1:
        raise ValueError("need n >= 0 and ell >= 1")
    target = delta(ell, n)
    tails: dict[tuple[tuple[int, ...], int], list[tuple[Partition, ...]]] = {}
    partitions: dict[tuple[int, ...], Partition] = {}

    def partition(lengths: tuple[int, ...]) -> Partition:
        shared = partitions.get(lengths)
        if shared is None:
            shared = partitions[lengths] = Partition(lengths)
        return shared

    def choices(vertex: int, remaining: tuple[int, ...], cap: int, acc: tuple[int, ...]):
        """Yield (lengths, what is left) for every chain multiset at vertex
        with lengths at most cap that fits in remaining."""
        yield acc, remaining
        for length in range(min(cap, sum(remaining)), 0, -1):
            rv = run_vector(vertex, length, ell)
            if all(r >= v for r, v in zip(remaining, rv)):
                yield from choices(
                    vertex, tuple(r - v for r, v in zip(remaining, rv)), length, acc + (length,)
                )

    def fills(deficit: tuple[int, ...], vertex: int) -> list[tuple[Partition, ...]]:
        """Every way to fill deficit exactly with chains at vertex..ell-1,
        as one partition of chain lengths per vertex."""
        key = (deficit, vertex)
        found = tails.get(key)
        if found is None:
            if vertex == ell:
                found = [] if any(deficit) else [()]
            else:
                found = []
                for acc, remaining in choices(vertex, deficit, sum(deficit), ()):
                    head = (partition(acc),)
                    found.extend(head + rest for rest in fills(remaining, vertex + 1))
                    if len(found) > max_count:
                        raise ValueError(f"enumeration exceeds the cap of {max_count}")
            tails[key] = found
        return found

    out: list[OrbitLabel] = []
    for m in range(0, n * ell + 1):
        for lam in enumerate_partitions(m, max_count):
            cres = column_residue(lam, ell)
            if not target.dominates(cres):
                continue
            deficit = tuple(t - c for t, c in zip(target.main, cres.main))
            for acc, remaining in choices(0, deficit, sum(deficit), ()):
                rests = fills(remaining, 1)
                if len(out) + len(rests) > max_count:
                    raise ValueError(f"enumeration exceeds the cap of {max_count}")
                head = (partition(acc),)
                for rest in rests:
                    out.append(OrbitLabel(lam, Multipartition(head + rest)))
    out.sort(key=OrbitLabel.sort_key, reverse=True)
    return out


def ell_quotient_core(lam: Partition, ell: int) -> tuple[Partition, Multipartition]:
    """Core and quotient of a partition via beta-numbers on ell runners.

    First-column beta-number convention with the bead count normalized to a
    multiple of ell, which makes both outputs independent of the padding.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
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
    """Inverse of :func:`ell_quotient_core`."""
    if len(quotient) != ell:
        raise ValueError("quotient length must equal ell")
    if any(c for c in ell_quotient_core(core, ell)[1]):
        raise ValueError("first argument is not an ell-core")
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
        if len(comp) > c:
            raise ValueError("quotient component too long for the bead count")
        for idx in range(c):
            position = comp[idx] + (c - 1 - idx)
            new_beta.append(ell * position + r)
    new_beta.sort(reverse=True)
    return Partition(b - (m - 1 - i) for i, b in enumerate(new_beta))
