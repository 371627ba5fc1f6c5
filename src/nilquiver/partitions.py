"""Partitions, Frobenius coordinates, hook data and bounded enumeration.

Conventions used throughout the package:

* a partition is stored as a weakly decreasing tuple of positive integers;
  trailing zeros are stripped on construction, so equality is equality of
  the stripped tuples;
* boxes of the Young diagram sit at matrix positions (i, j) with 1-based
  row i and column j; the content of the box is j - i;
* Frobenius coordinates are stored 0-indexed: the (i+1)-st diagonal box has
  ``legs[i]`` boxes below it and ``arms[i]`` boxes to its right.

Where values are checked: the public constructors of :class:`Partition`,
:class:`FrobeniusPartition` and :class:`Multipartition` coerce and validate
their fields, so data from outside the program (JSON, CLI text, user lists)
always goes through them.  A value computed from one that was already
validated (a transpose, Frobenius coordinates and the partition they
describe, the chain lengths and the vertex-0 fills of the fill search, the
hooks of a marked diagram and the lengths of a plain one in
``circle_diagrams``) is built by a private ``_built`` constructor instead,
which stores fields that are valid by construction without checking them
again.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Soft cap on the size of any single enumeration result.
DEFAULT_ENUMERATION_CAP = 10**6


def json_int(x, what: str) -> int:
    """An integer read from JSON; a bool, float or string raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def json_ints(data, what: str) -> tuple[int, ...]:
    """A JSON array of integers as a tuple; any other value raises ValueError."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list of integers, not {data!r}")
    return tuple(json_int(x, what) for x in data)


class Partition:
    """A weakly decreasing sequence of positive integers.

    Indexing is 0-based and total: ``p[i]`` returns 0 for ``i >= len(p)``,
    which keeps row arithmetic (padding, componentwise sums) free of bounds
    fiddling.

    The constructor coerces and checks its parts; ``_built`` takes a tuple
    that is already a valid partition (derived from validated values).
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(x) for x in parts)
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        parts = parts[:end]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        self.parts = parts

    @classmethod
    def _built(cls, parts: tuple[int, ...]) -> "Partition":
        """A partition of parts computed here as a weakly decreasing tuple of
        positive ints, taken without coercing or checking them again."""
        p = cls.__new__(cls)
        p.parts = parts
        return p

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        if isinstance(i, slice):
            raise TypeError("slice the .parts tuple instead")
        if i < 0:
            raise IndexError("negative partition index")
        return self.parts[i] if i < len(self.parts) else 0

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.parts) + "]"

    def __bool__(self) -> bool:
        return bool(self.parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the bracket form, e.g. "[7,5,3,2,1]" or "[]"."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"not a bracketed partition: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return cls()
        return cls(int(tok) for tok in inner.split(","))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def _column_heights(self, width: int):
        """Yield the height of column j, the number of parts longer than j,
        for j = 0, ..., width - 1."""
        parts = self.parts
        rows = len(parts)
        for j in range(width):
            while parts[rows - 1] <= j:
                rows -= 1
            yield rows

    def transpose(self) -> "Partition":
        return Partition._built(tuple(self._column_heights(self[0])))

    def diagonal_length(self) -> int:
        """Number of boxes on the main diagonal."""
        return sum(1 for i, part in enumerate(self.parts, start=1) if part >= i)

    def frobenius(self) -> "FrobeniusPartition":
        k = self.diagonal_length()
        # only the first k columns are read, never all self[0] of them
        legs = tuple(h - (i + 1) for i, h in enumerate(self._column_heights(k)))
        arms = tuple(self.parts[i] - (i + 1) for i in range(k))
        return FrobeniusPartition._built(legs, arms)

    def weight(self, ell: int) -> int:
        """Number of boxes of content divisible by ell in the first hook,
        whose contents run from 1 - len(self) to self[0] - 1.

        The empty partition has weight 0.
        """
        if ell < 1:
            raise ValueError("ell must be positive")
        if not self.parts:
            return 0
        return (self.parts[0] - 1) // ell - (-len(self.parts)) // ell


@dataclass(frozen=True, slots=True)
class FrobeniusPartition:
    """Frobenius coordinates: strictly decreasing leg and arm sequences.

    ``legs[i]`` counts the boxes below the (i+1)-st diagonal box and
    ``arms[i]`` the boxes to its right; hook i therefore has
    ``legs[i] + arms[i] + 1`` boxes with contents running from ``-legs[i]``
    up to ``arms[i]``.

    The constructor coerces and checks the coordinates; ``_built`` takes
    the coordinates of a validated partition without checking them again.
    """

    legs: tuple[int, ...]
    arms: tuple[int, ...]

    def __post_init__(self):
        legs = tuple(int(x) for x in self.legs)
        arms = tuple(int(x) for x in self.arms)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "arms", arms)
        if len(legs) != len(arms):
            raise ValueError("legs and arms must have equal length")
        for seq in (legs, arms):
            if any(x < 0 for x in seq):
                raise ValueError(f"negative Frobenius coordinate in {seq}")
            if any(a <= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"coordinates not strictly decreasing: {seq}")

    @classmethod
    def _built(cls, legs: tuple[int, ...], arms: tuple[int, ...]) -> "FrobeniusPartition":
        """Coordinates computed here from a valid partition (tuples of ints
        of equal length, nonnegative and strictly decreasing), taken without
        coercing or checking them again."""
        f = object.__new__(cls)
        object.__setattr__(f, "legs", legs)
        object.__setattr__(f, "arms", arms)
        return f

    def __len__(self) -> int:
        return len(self.legs)

    @property
    def size(self) -> int:
        return sum(self.legs) + sum(self.arms) + len(self.legs)

    def hook_sizes(self) -> Partition:
        """The strictly decreasing partition of hook lengths."""
        return Partition(a + b + 1 for a, b in zip(self.legs, self.arms))

    def partition(self) -> Partition:
        """The partition with these Frobenius coordinates: rows arms[i-1] + i
        down to the diagonal, and below it c boxes in each row that column c,
        legs[c-1] + c boxes high, reaches and column c + 1 does not."""
        rows = [arm + i for i, arm in enumerate(self.arms, 1)]
        for i in range(len(rows), 0, -1):
            rows += [i] * (self.legs[i - 1] + i - len(rows))
        # strictly decreasing legs and arms give positive, decreasing rows
        return Partition._built(tuple(rows))


@dataclass(frozen=True, slots=True)
class Bipartition:
    first: Partition
    second: Partition

    @property
    def size(self) -> int:
        return self.first.size + self.second.size

    def __str__(self) -> str:
        return f"({self.first};{self.second})"


@dataclass(frozen=True, slots=True)
class Multipartition:
    """A fixed-length tuple of partitions.

    The constructor checks its components; ``_built`` takes a tuple of
    partitions that is already valid."""

    components: tuple[Partition, ...]

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise ValueError("a multipartition needs at least one component")
        if not all(isinstance(c, Partition) for c in components):
            raise ValueError("components must be Partition values")
        object.__setattr__(self, "components", components)

    @classmethod
    def _built(cls, components: tuple[Partition, ...]) -> "Multipartition":
        """A nonempty tuple of ``Partition`` values built here, taken
        without checking it again."""
        m = object.__new__(cls)
        object.__setattr__(m, "components", components)
        return m

    @classmethod
    def empty(cls, ell: int) -> "Multipartition":
        return cls(tuple(Partition() for _ in range(ell)))

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Partition:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"


def _partition_tuples(n: int, max_part: int):
    """Yield weakly decreasing tuples summing to n, largest first (lex desc)."""
    if n == 0:
        yield ()
        return
    for head in range(min(n, max_part), 0, -1):
        for tail in _partition_tuples(n - head, head):
            yield (head,) + tail


def enumerate_partitions(n: int, max_count: int = DEFAULT_ENUMERATION_CAP) -> list[Partition]:
    """All partitions of n in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for parts in _partition_tuples(n, n):
        out.append(Partition(parts))
        if len(out) > max_count:
            raise ValueError(f"enumeration exceeds the cap of {max_count}")
    return out
