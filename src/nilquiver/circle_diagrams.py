"""Circle diagrams for the cyclic quiver and their marked (Frobenius) variant.

A circle is a chain of vertices threaded through the cyclic blocks
0..ell-1; it is recorded as (start block, number of vertices), which is a
complete invariant up to permuting vertices inside a block.  A marked
circle carries one distinguished vertex sitting in block 0; its ``mark`` is
the offset of that vertex from the start of the chain, so ``mark`` vertices
precede the marked one and ``length - mark - 1`` follow it, and the start
block is forced to be ``-mark mod ell``.

A marked diagram is Frobenius when both the mark offsets and the follower
counts are strictly decreasing; the offsets are then the arm lengths and
the follower counts the leg lengths of a partition, which sets up the
bijection between marked diagrams and partitions used for orbit labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .partitions import FrobeniusPartition, Multipartition, Partition
from .residues import (
    DimensionVector,
    run_vector,
    zero_hits,
    chain_allowed,
)


@dataclass(frozen=True, slots=True)
class CircleDiagram:
    """An unmarked multiset of circles: pairs (start block, length >= 1)."""

    ell: int
    circles: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be positive")
        circles = []
        for start, length in self.circles:
            if not (0 <= start < self.ell):
                raise ValueError(f"start block {start} out of range")
            if length < 1:
                raise ValueError("circle length must be positive")
            circles.append((int(start), int(length)))
        circles.sort(key=lambda c: (-c[1], c[0]))
        object.__setattr__(self, "circles", tuple(circles))

    def __len__(self) -> int:
        return len(self.circles)

    def dimension_vector(self) -> DimensionVector:
        counts = [0] * self.ell
        for start, length in self.circles:
            for j, extra in enumerate(run_vector(start, length, self.ell)):
                counts[j] += extra
        return DimensionVector(0, tuple(counts))

    def multipartition(self) -> Multipartition:
        """Circle lengths grouped by start block."""
        comps: list[list[int]] = [[] for _ in range(self.ell)]
        for start, length in self.circles:
            comps[start].append(length)
        return Multipartition(tuple(Partition(sorted(c, reverse=True)) for c in comps))

    @classmethod
    def from_multipartition(cls, nu: Multipartition) -> "CircleDiagram":
        circles = [(i, length) for i, comp in enumerate(nu) for length in comp]
        return cls(len(nu), tuple(circles))

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "circles": [{"start": s, "len": p, "mark": None} for s, p in self.circles],
        }

    def __str__(self) -> str:
        inner = ", ".join(f"({s},{p})" for s, p in self.circles)
        return f"CircleDiagram(ell={self.ell}, [{inner}])"


@dataclass(frozen=True, slots=True)
class FrobeniusCircleDiagram:
    """Marked circles (length, mark offset) whose marks land in block 0.

    Valid diagrams have strictly decreasing mark offsets and strictly
    decreasing follower counts once sorted by length; violating either
    strictness means the diagram corresponds to no partition and is
    rejected.
    """

    ell: int
    circles: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be positive")
        circles = sorted(
            ((int(p), int(o)) for p, o in self.circles), key=lambda c: (-c[0], -c[1])
        )
        object.__setattr__(self, "circles", tuple(circles))
        arms = [o for _, o in circles]
        legs = [p - o - 1 for p, o in circles]
        for p, o in circles:
            if p < 1:
                raise ValueError("circle length must be positive")
            if not (0 <= o < p):
                raise ValueError(f"mark offset {o} out of range for length {p}")
        for seq in (arms, legs):
            if any(x < 0 for x in seq) or any(a <= b for a, b in zip(seq, seq[1:])):
                raise ValueError(
                    "not a Frobenius diagram: mark offsets and follower counts "
                    "must both be strictly decreasing"
                )

    def __len__(self) -> int:
        return len(self.circles)

    def starts(self) -> tuple[int, ...]:
        """Start block of each circle; the marked vertex then sits in block 0."""
        return tuple((-o) % self.ell for _, o in self.circles)

    def dimension_vector(self) -> DimensionVector:
        counts = [0] * self.ell
        for p, o in self.circles:
            for j, extra in enumerate(run_vector((-o) % self.ell, p, self.ell)):
                counts[j] += extra
        return DimensionVector(0, tuple(counts))

    def frobenius_partition(self) -> FrobeniusPartition:
        arms = tuple(o for _, o in self.circles)
        legs = tuple(p - o - 1 for p, o in self.circles)
        return FrobeniusPartition(legs, arms)

    def partition(self) -> Partition:
        return self.frobenius_partition().partition()

    def weight(self) -> int:
        """Block-0 vertex count of the longest circle; 0 for the empty diagram."""
        if not self.circles:
            return 0
        p, o = self.circles[0]
        return zero_hits((-o) % self.ell, p, self.ell)

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "circles": [
                {"start": (-o) % self.ell, "len": p, "mark": o} for p, o in self.circles
            ],
        }

    def __str__(self) -> str:
        inner = ", ".join(f"(len={p}, mark={o})" for p, o in self.circles)
        return f"FrobeniusCircleDiagram(ell={self.ell}, [{inner}])"


def diagram_from_json(data: dict) -> "CircleDiagram | FrobeniusCircleDiagram":
    """Parse the shared JSON form; marked circles yield a Frobenius diagram.

    Any other shape raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"diagram JSON must be an object, not {type(data).__name__}")
    try:
        ell = int(data["ell"])
        if ell < 1:
            raise ValueError("ell must be positive")
        circles = data["circles"]
        marks = [c.get("mark") for c in circles]
        if any(m is not None for m in marks):
            if not all(m is not None for m in marks):
                raise ValueError("either all circles carry a mark or none does")
            for c in circles:
                if c["start"] != (-int(c["mark"])) % ell:
                    raise ValueError("marked circle start must be -mark mod ell")
            return FrobeniusCircleDiagram(ell, tuple((int(c["len"]), int(c["mark"])) for c in circles))
        return CircleDiagram(ell, tuple((int(c["start"]), int(c["len"])) for c in circles))
    except KeyError as exc:
        raise ValueError(f"diagram JSON lacks the key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from exc


def diagram_of_coloured_partition(lam: Partition, colours, ell: int) -> CircleDiagram:
    """One circle per row: row i starts in block colours[i] and has length lam_i."""
    colours = tuple(int(c) for c in colours)
    if len(colours) != len(lam):
        raise ValueError("one colour per part is required")
    return CircleDiagram(ell, tuple((c, p) for c, p in zip(colours, lam.parts)))


def frobenius_diagram_of_partition(lam: Partition, ell: int) -> FrobeniusCircleDiagram:
    """The marked diagram of a partition: hook i gives a circle of the hook's
    size marked at offset arms[i] (so it starts in block -arms[i] mod ell)."""
    f = lam.frobenius()
    circles = tuple((legs + arms + 1, arms) for legs, arms in zip(f.legs, f.arms))
    return FrobeniusCircleDiagram(ell, circles)


def bounded_circle_diagrams(
    ell: int,
    d: DimensionVector,
    max_length: int | None = None,
    max_zero_hits: int | None = None,
) -> list[CircleDiagram]:
    """All unmarked diagrams with dimension vector d, circlewise filtered.

    ``max_length`` caps the vertex count of each circle; ``max_zero_hits``
    caps how often each circle passes block 0 (the nilpotency-degree bound).
    """
    if d.ell != ell:
        raise ValueError("dimension vector has the wrong cycle length")

    def ok(start: int, length: int) -> bool:
        if max_length is not None and length > max_length:
            return False
        if max_zero_hits is not None and not chain_allowed(start, length, ell, max_zero_hits):
            return False
        return True

    total = d.total
    allowed = [
        (s, p) for p in range(total, 0, -1) for s in range(ell) if ok(s, p)
    ]

    out: list[CircleDiagram] = []

    def search(idx: int, remaining: tuple[int, ...], acc: list[tuple[int, int]]):
        if all(r == 0 for r in remaining):
            out.append(CircleDiagram(ell, tuple(acc)))
            return
        if idx == len(allowed):
            return
        start, length = allowed[idx]
        rv = run_vector(start, length, ell)
        copies = 0
        while True:
            if copies:
                if not all(r >= v for r, v in zip(remaining, rv)):
                    break
                remaining = tuple(r - v for r, v in zip(remaining, rv))
                acc.append((start, length))
            search(idx + 1, remaining, acc)
            copies += 1
        for _ in range(copies - 1):
            acc.pop()

    search(0, d.main, [])
    return sorted(out, key=lambda c: c.circles)


def to_dot(diagram: "CircleDiagram | FrobeniusCircleDiagram") -> str:
    """Graphviz DOT form: one node per vertex, blocks as clusters, arrows
    along the circles, marked vertices drawn as boxes."""
    ell = diagram.ell
    if isinstance(diagram, FrobeniusCircleDiagram):
        chains = [((-o) % ell, p, o) for p, o in diagram.circles]
    else:
        chains = [(s, p, None) for s, p in diagram.circles]

    nodes: list[tuple[str, int, bool]] = []
    edges: list[tuple[str, str]] = []
    for c_idx, (start, length, mark) in enumerate(chains):
        prev = None
        for k in range(length):
            block = (start + k) % ell
            name = f"c{c_idx}_{k}"
            nodes.append((name, block, mark is not None and k == mark))
            if prev is not None:
                edges.append((prev, name))
            prev = name

    lines = ["digraph circles {", "  rankdir=LR;"]
    for block in range(ell):
        lines.append(f"  subgraph cluster_{block} {{")
        lines.append(f'    label="block {block}";')
        for name, b, marked in nodes:
            if b == block:
                shape = "box" if marked else "circle"
                lines.append(f'    {name} [shape={shape}, label="{b}"];')
        lines.append("  }")
    for a, b in edges:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines)


def from_dot(text: str) -> "CircleDiagram | FrobeniusCircleDiagram":
    """Rebuild a diagram from the DOT text emitted by :func:`to_dot`."""
    node_re = re.compile(r"^\s*(c\d+_\d+) \[shape=(box|circle), label=\"(\d+)\"\];\s*$")
    edge_re = re.compile(r"^\s*(c\d+_\d+) -> (c\d+_\d+);\s*$")
    blocks: dict[str, int] = {}
    marked: set[str] = set()
    succ: dict[str, str] = {}
    has_pred: set[str] = set()
    for line in text.splitlines():
        m = node_re.match(line)
        if m:
            blocks[m.group(1)] = int(m.group(3))
            if m.group(2) == "box":
                marked.add(m.group(1))
            continue
        m = edge_re.match(line)
        if m:
            succ[m.group(1)] = m.group(2)
            has_pred.add(m.group(2))
    if not blocks:
        raise ValueError("no diagram nodes found in DOT text")
    ell = max(blocks.values()) + 1
    circles = []
    frobenius = bool(marked)
    for name in sorted(b for b in blocks if b not in has_pred):
        chain = [name]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        start = blocks[chain[0]]
        if frobenius:
            offsets = [k for k, v in enumerate(chain) if v in marked]
            if len(offsets) != 1:
                raise ValueError("each marked circle needs exactly one marked vertex")
            circles.append(("F", len(chain), offsets[0]))
        else:
            circles.append(("C", start, len(chain)))
    if frobenius:
        return FrobeniusCircleDiagram(ell, tuple((p, o) for _, p, o in circles))
    return CircleDiagram(ell, tuple((s, p) for _, s, p in circles))


def to_ascii(diagram: "CircleDiagram | FrobeniusCircleDiagram") -> str:
    """One line per circle listing the blocks it passes; marks in brackets.

    Vertex positions are printed 1-based in the header to ease reading off
    marked positions by eye.
    """
    ell = diagram.ell
    lines = [f"ell={ell}"]
    if isinstance(diagram, FrobeniusCircleDiagram):
        chains = [((-o) % ell, p, o) for p, o in diagram.circles]
    else:
        chains = [(s, p, None) for s, p in diagram.circles]
    for idx, (start, length, mark) in enumerate(chains, start=1):
        cells = []
        for k in range(length):
            block = (start + k) % ell
            cells.append(f"[{block}]" if k == mark else f" {block} ")
        lines.append(f"circle {idx} (len {length}): " + "".join(cells))
    return "\n".join(lines)
