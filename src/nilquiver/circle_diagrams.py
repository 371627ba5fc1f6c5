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

Both kinds list their circles as chains through ``chains()``: one triple
(start, length, mark) per circle, with mark None for an unmarked circle.
``FrobeniusCircleDiagram.chains`` is the one place the start -mark mod ell
is worked out; dimension vectors, JSON, DOT and ASCII forms and the
representatives built in ``rep_builder`` read their chains from it, as do
the hook probes of the tests' fingerprint oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .partitions import FrobeniusPartition, Multipartition, Partition, json_int
from .residues import DimensionVector, chain_fills, runs_vector, zero_hits


class _Diagram:
    """What both diagram kinds read off their chains (start, length, mark)."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.circles)

    def dimension_vector(self) -> DimensionVector:
        return DimensionVector(0, runs_vector(((s, p) for s, p, _ in self.chains()), self.ell))

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "circles": [{"start": s, "len": p, "mark": m} for s, p, m in self.chains()],
        }


@dataclass(frozen=True, slots=True)
class CircleDiagram(_Diagram):
    """An unmarked multiset of circles: pairs (start block, length >= 1).

    The constructor checks and sorts the circles; ``_built`` sorts circles
    computed from validated values without checking them again."""

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

    @classmethod
    def _built(cls, ell: int, circles) -> "CircleDiagram":
        """A diagram of circles (start, length) computed here, ints with
        each start in 0..ell-1 and each length positive, sorted as the
        constructor sorts them but not checked again."""
        circles = sorted(circles, key=lambda c: (-c[1], c[0]))
        d = object.__new__(cls)
        object.__setattr__(d, "ell", ell)
        object.__setattr__(d, "circles", tuple(circles))
        return d

    def chains(self) -> tuple[tuple[int, int, None], ...]:
        """(start, length, None) per circle."""
        return tuple((s, p, None) for s, p in self.circles)

    def multipartition(self) -> Multipartition:
        """Circle lengths grouped by start block."""
        comps: list[list[int]] = [[] for _ in range(self.ell)]
        for start, length in self.circles:
            comps[start].append(length)
        # the circles come longest first, so each block's lengths decrease
        return Multipartition._built(tuple(Partition._built(tuple(c)) for c in comps))

    @classmethod
    def from_multipartition(cls, nu: Multipartition) -> "CircleDiagram":
        circles = [(i, length) for i, comp in enumerate(nu.components) for length in comp.parts]
        return cls._built(len(nu.components), circles)

    def __str__(self) -> str:
        inner = ", ".join(f"({s},{p})" for s, p in self.circles)
        return f"CircleDiagram(ell={self.ell}, [{inner}])"


@dataclass(frozen=True, slots=True)
class FrobeniusCircleDiagram(_Diagram):
    """Marked circles (length, mark offset) whose marks land in block 0.

    Valid diagrams have strictly decreasing mark offsets and strictly
    decreasing follower counts once sorted by length; violating either
    strictness means the diagram corresponds to no partition and is
    rejected.  The constructor sorts and checks the circles; ``_built``
    takes the hooks of a validated partition without checking them again
    (see :func:`frobenius_diagram_of_partition`).
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

    @classmethod
    def _built(cls, ell: int, circles: tuple[tuple[int, int], ...]) -> "FrobeniusCircleDiagram":
        """A diagram of circles computed here, already sorted longest first
        with strictly decreasing mark offsets and follower counts (the hooks
        of a partition, or the surviving rows of a striped bipartition),
        taken without sorting or checking them again."""
        d = object.__new__(cls)
        object.__setattr__(d, "ell", ell)
        object.__setattr__(d, "circles", circles)
        return d

    def chains(self) -> tuple[tuple[int, int, int], ...]:
        """(start, length, mark) per circle, longest first; the start is
        -mark mod ell, so the marked vertex sits in block 0."""
        return tuple(((-o) % self.ell, p, o) for p, o in self.circles)

    def frobenius_partition(self) -> FrobeniusPartition:
        arms = tuple(o for _, o in self.circles)
        legs = tuple(p - o - 1 for p, o in self.circles)
        return FrobeniusPartition._built(legs, arms)

    def partition(self) -> Partition:
        return self.frobenius_partition().partition()

    def weight(self) -> int:
        """Block-0 vertex count of the longest circle; 0 for the empty diagram."""
        if not self.circles:
            return 0
        start, length, _ = self.chains()[0]
        return zero_hits(start, length, self.ell)

    def to_json(self) -> dict:
        """The shared JSON form with ``"marked": true``, so that the empty
        marked diagram reads back as marked."""
        return {**_Diagram.to_json(self), "marked": True}

    def __str__(self) -> str:
        inner = ", ".join(f"(len={p}, mark={o})" for p, o in self.circles)
        return f"FrobeniusCircleDiagram(ell={self.ell}, [{inner}])"


def _diagram_of_chains(
    ell: int, chains: list[tuple[int, int, int | None]], marked: bool | None = None
) -> "CircleDiagram | FrobeniusCircleDiagram":
    """The diagram whose chains (start, length, mark) are the given ones:
    marked when every chain carries a mark, unmarked when none does.  A
    ``marked`` record says which kind is meant, which only matters for the
    empty diagram.  Mixed marks, a record the circles contradict, and a
    marked start other than -mark mod ell raise ValueError."""
    if marked and not chains:
        return FrobeniusCircleDiagram(ell, ())
    if all(mark is None for _, _, mark in chains):
        diagram = CircleDiagram(ell, tuple((s, p) for s, p, _ in chains))
    elif any(mark is None for _, _, mark in chains):
        raise ValueError("either all circles carry a mark or none does")
    else:
        diagram = FrobeniusCircleDiagram(ell, tuple((p, mark) for _, p, mark in chains))
        if sorted(diagram.chains()) != sorted(chains):
            raise ValueError("marked circle start must be -mark mod ell")
    if marked is not None and marked != isinstance(diagram, FrobeniusCircleDiagram):
        raise ValueError(f"marked={marked} contradicts the circles' marks")
    return diagram


def diagram_from_json(data: dict) -> "CircleDiagram | FrobeniusCircleDiagram":
    """Parse the shared JSON form; marked circles yield a Frobenius diagram.

    An optional ``"marked"`` flag says which kind is meant, which only
    matters for the empty diagram; circles whose marks contradict it, and
    any other shape, raise ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"diagram JSON must be an object, not {type(data).__name__}")
    try:
        ell = json_int(data["ell"], "ell")
        if ell < 1:
            raise ValueError("ell must be positive")
        marked = data.get("marked")
        if marked is not None and not isinstance(marked, bool):
            raise ValueError(f"marked must be true or false, not {marked!r}")
        chains = [
            (
                json_int(c["start"], "start"),
                json_int(c["len"], "len"),
                None if c.get("mark") is None else json_int(c["mark"], "mark"),
            )
            for c in data["circles"]
        ]
    except KeyError as exc:
        raise ValueError(f"diagram JSON lacks the key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from exc
    return _diagram_of_chains(ell, chains, marked)


def frobenius_diagram_of_partition(lam: Partition, ell: int) -> FrobeniusCircleDiagram:
    """The marked diagram of a partition: hook i gives a circle of the hook's
    size marked at offset arms[i] (so it starts in block -arms[i] mod ell).

    Legs and arms of a partition both decrease strictly, so the hooks come
    sorted and valid, and the diagram is built without checking them again."""
    if ell < 1:
        raise ValueError("ell must be positive")
    f = lam.frobenius()
    circles = tuple((legs + arms + 1, arms) for legs, arms in zip(f.legs, f.arms))
    return FrobeniusCircleDiagram._built(ell, circles)


def bounded_circle_diagrams(
    ell: int,
    d: DimensionVector,
    max_length: int | None = None,
    max_zero_hits: int | None = None,
) -> list[CircleDiagram]:
    """All unmarked diagrams with dimension vector d, circlewise bounded,
    sorted by their circles.

    ``max_length`` caps the vertex count of each circle; ``max_zero_hits``
    caps how often each circle passes block 0 (the nilpotency-degree
    bound).  A circle from block v passes block 0 for the (x+1)-th time at
    offset (-v mod ell) + x*ell, so the second bound is a length cap too,
    one per start block.  The diagrams are the fills of
    :func:`~nilquiver.residues.chain_fills` with these per-block caps, the
    search that also fills the orbit labels.  Both bounds apply inside the
    search, so more than ``DEFAULT_ENUMERATION_CAP`` diagrams that meet
    them raise its ``ValueError``; without a bound that cap also bounds the
    choices tried, but a bound can leave a choice with no diagram, and then
    only the number of choices tried bounds the work.
    """
    if d.ell != ell:
        raise ValueError("dimension vector has the wrong cycle length")
    if max_length is not None and max_length < 1:
        raise ValueError("max_length must be positive")
    if max_zero_hits is not None and max_zero_hits < 1:
        raise ValueError("max_zero_hits must be positive")
    cap = d.total if max_length is None else max_length
    caps = tuple(
        cap if max_zero_hits is None else min(cap, (-v) % ell + max_zero_hits * ell)
        for v in range(ell)
    )
    _, fills = chain_fills(ell, caps)
    diagrams = [CircleDiagram.from_multipartition(nu) for nu in fills(d.main, 0)]
    return sorted(diagrams, key=lambda c: c.circles)


def to_dot(diagram: "CircleDiagram | FrobeniusCircleDiagram") -> str:
    """Graphviz DOT form: one node per vertex, blocks as clusters, arrows
    along the circles, marked vertices drawn as boxes.  A marked diagram
    also carries the graph comment ``"marked"``, so that the empty marked
    diagram reads back as marked."""
    ell = diagram.ell
    # the nodes of each block, in circle order
    nodes: list[list[tuple[str, bool]]] = [[] for _ in range(ell)]
    edges: list[tuple[str, str]] = []
    for c_idx, (start, length, mark) in enumerate(diagram.chains()):
        prev = None
        for k in range(length):
            name = f"c{c_idx}_{k}"
            nodes[(start + k) % ell].append((name, mark is not None and k == mark))
            if prev is not None:
                edges.append((prev, name))
            prev = name

    lines = ["digraph circles {", "  rankdir=LR;"]
    if isinstance(diagram, FrobeniusCircleDiagram):
        lines.append('  comment="marked";')
    for block in range(ell):
        lines.append(f"  subgraph cluster_{block} {{")
        lines.append(f'    label="block {block}";')
        for name, marked in nodes[block]:
            shape = "box" if marked else "circle"
            lines.append(f'    {name} [shape={shape}, label="{block}"];')
        lines.append("  }")
    for a, b in edges:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines)


def from_dot(text: str) -> "CircleDiagram | FrobeniusCircleDiagram":
    """Rebuild a diagram from the DOT text emitted by :func:`to_dot`.

    ell is read from the block clusters, so DOT text with clusters but no
    nodes is the empty diagram of that ell; a graph comment ``"marked"`` or
    ``"unmarked"`` says which kind is meant, as the ``"marked"`` flag of
    :func:`diagram_from_json` does, and circles that contradict it raise
    ValueError.  Every arrow must join declared
    nodes, no node may have two arrows out or in or lie on a cycle, and
    each arrow must step to the next block; anything else raises
    ValueError.
    """
    cluster_re = re.compile(r"^\s*subgraph cluster_(\d+) \{\s*$")
    node_re = re.compile(r"^\s*(c\d+_\d+) \[shape=(box|circle), label=\"(\d+)\"\];\s*$")
    edge_re = re.compile(r"^\s*(c\d+_\d+) -> (c\d+_\d+);\s*$")
    comment_re = re.compile(r'^\s*comment="(marked|unmarked)";\s*$')
    ell = 0
    record: bool | None = None
    blocks: dict[str, int] = {}
    marked: set[str] = set()
    succ: dict[str, str] = {}
    pred: dict[str, str] = {}
    for line in text.splitlines():
        if m := cluster_re.match(line):
            ell = max(ell, int(m.group(1)) + 1)
        elif m := node_re.match(line):
            blocks[m.group(1)] = int(m.group(3))
            if m.group(2) == "box":
                marked.add(m.group(1))
        elif m := edge_re.match(line):
            a, b = m.groups()
            if a in succ or b in pred:
                raise ValueError(f"{a if a in succ else b} has two arrows out or in")
            succ[a], pred[b] = b, a
        elif m := comment_re.match(line):
            if record is not None:
                raise ValueError("the DOT text says twice whether it is marked")
            record = m.group(1) == "marked"
    if not ell:
        raise ValueError("no block clusters found in DOT text")
    for name in sorted(succ.keys() | pred.keys() | blocks.keys()):
        if name not in blocks:
            raise ValueError(f"arrow to the undeclared node {name}")
        if blocks[name] >= ell:
            raise ValueError(f"{name} sits in block {blocks[name]} of only {ell} clusters")
    chains = []
    for name in sorted(b for b in blocks if b not in pred):
        chain = [name]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
            if blocks[chain[-1]] != (blocks[chain[-2]] + 1) % ell:
                raise ValueError(f"arrow {chain[-2]} -> {chain[-1]} must step one block")
        offsets = [k for k, v in enumerate(chain) if v in marked]
        if len(offsets) > 1:
            raise ValueError("each marked circle needs exactly one marked vertex")
        chains.append((blocks[name], len(chain), offsets[0] if offsets else None))
    if sum(length for _, length, _ in chains) != len(blocks):
        raise ValueError("DOT arrows form a cycle")
    return _diagram_of_chains(ell, chains, record)


def to_ascii(diagram: "CircleDiagram | FrobeniusCircleDiagram") -> str:
    """One line per circle listing the blocks it passes; marks in brackets.

    Vertex positions are printed 1-based in the header to ease reading off
    marked positions by eye.
    """
    ell = diagram.ell
    lines = [f"ell={ell}"]
    for idx, (start, length, mark) in enumerate(diagram.chains(), start=1):
        cells = []
        for k in range(length):
            block = (start + k) % ell
            cells.append(f"[{block}]" if k == mark else f" {block} ")
        lines.append(f"circle {idx} (len {length}): " + "".join(cells))
    return "\n".join(lines)
