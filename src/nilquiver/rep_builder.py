"""Explicit exact-rational representations of the (framed) cyclic quiver.

A representation assigns a vector space to each cycle vertex and a matrix
to each arrow i -> i+1 mod ell; the framed variant adds a one-dimensional
space mapping into vertex 0, recorded as the image vector of its basis
element.  All normal forms here are chain-built:

* ``build_chain(i, N, ell)`` is the indecomposable unframed module whose
  basis walks the vertices i, i+1, ..., i+N-1, each arrow sending one
  basis vector to the next;
* ``build_framed(lam, ell)`` attaches one chain per Frobenius hook of lam
  (length = hook size, marked at offset arm length, hence starting in
  block -arm mod ell) and sends the framing generator to the sum of the
  marked vectors;
* ``build_framed_jordan(mu, nu)`` is the one-vertex normal form: a nilpotent
  Jordan matrix of type mu + nu with the framing vector hitting column
  mu_i of row i;
* ``build_striped(s)`` realizes a striped bipartition through its coloured
  Jordan basis.

Entries stay exact rationals so that user-supplied representations can be
decomposed by rank computations without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circle_diagrams import frobenius_diagram_of_partition
from .linalg import (
    RationalMatrix,
    _common,
    _inverse,
    _product,
    as_fraction,
    block_diag,
    fraction_str,
)
from .orbit_maps import StripedBipartition
from .partitions import Multipartition, Partition, json_int
from .residues import DimensionVector, OrbitLabel, dim_framed


#: The entries of the 0/1 normal forms, shared by every matrix built here.
_ZERO, _ONE = Fraction(0), Fraction(1)


def _json_list(data, what: str) -> list:
    """A JSON array; any other value, a string included, raises ValueError."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list, not {data!r}")
    return data


@dataclass(frozen=True, slots=True)
class QuiverRep:
    """An exact representation of the framed cyclic quiver.

    ``maps[i]`` is the matrix of the arrow i -> i+1 mod ell, of shape
    (main[i+1], main[i]).  ``framing_vector`` is the image in the vertex-0
    space of the framing generator; it is the empty tuple when framing = 0.
    """

    ell: int
    dims: DimensionVector
    maps: tuple[RationalMatrix, ...]
    framing_vector: tuple[Fraction, ...]

    def __post_init__(self):
        if self.ell != self.dims.ell:
            raise ValueError("dimension vector has the wrong cycle length")
        if len(self.maps) != self.ell:
            raise ValueError("one matrix per arrow is required")
        main = self.dims.main
        for i, m in enumerate(self.maps):
            expected = (main[(i + 1) % self.ell], main[i])
            if m.shape != expected:
                raise ValueError(f"arrow {i} has shape {m.shape}, expected {expected}")
        fv = tuple(as_fraction(x) for x in self.framing_vector)
        object.__setattr__(self, "framing_vector", fv)
        if self.dims.framing == 1:
            if len(fv) != main[0]:
                raise ValueError("framing vector must live in the vertex-0 space")
        elif fv:
            raise ValueError("unframed representation cannot carry a framing vector")

    # -- structure ----------------------------------------------------------

    @property
    def framed(self) -> bool:
        return self.dims.framing == 1

    def nilpotency_degree(self) -> int:
        """Smallest e with cycle^e = 0, the cycle going once around from
        vertex 0; raises if the cycle is not nilpotent."""
        d0 = self.dims.main[0]
        cycle = power = RationalMatrix.identity(d0)
        for arrow in self.maps:
            cycle = arrow @ cycle
        for e in range(d0 + 1):
            if power.is_zero():
                return e
            power = cycle @ power
        raise ValueError(f"cycle map is not nilpotent: rank((cycle)^{d0}) > 0")

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "dims": self.dims.to_json(),
            "maps": [
                [[fraction_str(x) for x in row] for row in m.rows] for m in self.maps
            ],
            "framing_vector": [fraction_str(x) for x in self.framing_vector],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuiverRep":
        """Parse the ``to_json`` form; any other shape raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"representation JSON must be an object, not {type(data).__name__}")
        try:
            dims = DimensionVector.from_json(data["dims"])
            ell = json_int(data["ell"], "ell")
            if ell != dims.ell:
                raise ValueError(f"ell is {ell} but the dimension vector has {dims.ell} vertices")
            main = dims.main
            arrows = _json_list(data["maps"], "maps")
            if len(arrows) != ell:
                raise ValueError(f"maps holds {len(arrows)} matrices, expected one per arrow ({ell})")
            maps = []
            for i, rows in enumerate(arrows):
                nrows = main[(i + 1) % ell]
                ncols = main[i]
                # the matrix coerces each row's entries as the row is checked
                m = RationalMatrix(
                    (
                        _json_list(row, f"maps[{i}][{r}]")
                        for r, row in enumerate(_json_list(rows, f"maps[{i}]"))
                    ),
                    ncols,
                )
                if m.nrows != nrows:
                    raise ValueError(f"arrow {i} has {m.nrows} rows, expected {nrows}")
                maps.append(m)
            framing = tuple(_json_list(data["framing_vector"], "framing_vector"))
        except KeyError as exc:
            raise ValueError(f"representation JSON lacks the key {exc}") from exc
        except (TypeError, IndexError) as exc:
            raise ValueError(f"malformed representation JSON: {exc}") from exc
        return cls(ell, dims, tuple(maps), framing)


# ---------------------------------------------------------------------------
# chain assembly
# ---------------------------------------------------------------------------


def _assemble(ell: int, chains: list[tuple[int, int, int | None]], framed: bool) -> QuiverRep:
    """Build the direct sum of chains (start, length, mark offset or None).

    Marked offsets must land in block 0; the framing vector is the sum of
    the marked basis vectors.
    """
    position: dict[tuple[int, int], int] = {}
    counts = [0] * ell
    for c, (start, length, _) in enumerate(chains):
        for k in range(length):
            vertex = (start + k) % ell
            position[(c, k)] = counts[vertex]
            counts[vertex] += 1

    entries: list[list[list[Fraction]]] = [
        [[_ZERO] * counts[i] for _ in range(counts[(i + 1) % ell])] for i in range(ell)
    ]
    for c, (start, length, _) in enumerate(chains):
        for k in range(length - 1):
            vertex = (start + k) % ell
            entries[vertex][position[(c, k + 1)]][position[(c, k)]] = _ONE
    maps = tuple(
        RationalMatrix._built(tuple(map(tuple, entries[i])), counts[i]) for i in range(ell)
    )

    if framed:
        fv = [_ZERO] * counts[0]
        for c, (start, length, mark) in enumerate(chains):
            if mark is not None:
                if (start + mark) % ell:
                    raise AssertionError("marked vertex must sit in block 0")
                fv[position[(c, mark)]] = _ONE
        dims = DimensionVector(1, tuple(counts))
        return QuiverRep(ell, dims, maps, tuple(fv))
    dims = DimensionVector(0, tuple(counts))
    return QuiverRep(ell, dims, maps, ())


def build_chain(i: int, length: int, ell: int) -> QuiverRep:
    """The indecomposable unframed chain on vertices i, ..., i+length-1."""
    if not (0 <= i < ell):
        raise ValueError("start vertex out of range")
    if length < 1:
        raise ValueError("chain length must be positive")
    return _assemble(ell, [(i, length, None)], framed=False)


def build_framed(lam: Partition, ell: int) -> QuiverRep:
    """The framed indecomposable attached to a partition.

    Hook i contributes a chain of the hook size starting in block
    -arms[i] mod ell, marked at offset arms[i]; the framing generator maps
    to the sum of the marked vectors.  The empty partition gives the zero
    space with framing dimension one and zero framing vector.
    """
    rep = build_label_rep(OrbitLabel(lam, Multipartition.empty(ell)))
    if rep.dims != dim_framed(lam, ell):
        raise AssertionError("chain dimensions must match the residue count")
    return rep


def label_chains(label: OrbitLabel) -> list[tuple[int, int, int | None]]:
    """The chains (start, length, mark offset or None) of a label's canonical
    representative: one marked chain per Frobenius hook of its partition,
    then one unmarked chain per multipartition part."""
    chains: list[tuple[int, int, int | None]] = list(
        frobenius_diagram_of_partition(label.lam, label.ell).chains()
    )
    chains.extend((i, length, None) for i, comp in enumerate(label.nu) for length in comp)
    return chains


def build_label_rep(label: OrbitLabel) -> QuiverRep:
    """Canonical representative of an orbit label: the framed indecomposable
    of its partition plus one unframed chain per multipartition part."""
    return _assemble(label.ell, label_chains(label), framed=True)


def build_framed_jordan(mu: Partition, nu: Partition) -> QuiverRep:
    """One-vertex normal form: nilpotent Jordan matrix of type mu + nu with
    the framing vector hitting column mu_i of row i (rows with mu_i = 0
    contribute nothing)."""
    k = max(len(mu), len(nu))
    rows = [mu[i] + nu[i] for i in range(k)]
    n = sum(rows)
    entries = [[_ZERO] * n for _ in range(n)]
    fv = [_ZERO] * n
    offset = 0
    for i in range(k):
        for j in range(2, rows[i] + 1):
            entries[offset + j - 2][offset + j - 1] = _ONE
        if mu[i] >= 1:
            fv[offset + mu[i] - 1] = _ONE
        offset += rows[i]
    x = RationalMatrix._built(tuple(map(tuple, entries)), n)
    return QuiverRep(1, DimensionVector(1, (n,)), (x,), tuple(fv))


def build_striped(s: StripedBipartition) -> QuiverRep:
    """Representative of a striped bipartition via its coloured Jordan basis.

    Row i is the chain of length lam_i starting in block epsilon_i (read
    from the last box of the row); its marked column nu_i, when positive,
    sits at chain offset mu_i and contributes to the framing vector.
    """
    chains = [
        (colour, length, (length - mark_col) if mark_col >= 1 else None)
        for length, colour, mark_col in s.rows()
    ]
    return _assemble(s.ell, chains, framed=True)


def direct_sum(a: QuiverRep, b: QuiverRep) -> QuiverRep:
    """Block-diagonal sum; at most one summand may carry the framing."""
    if a.ell != b.ell:
        raise ValueError("cycle length mismatch")
    if a.framed and b.framed:
        raise ValueError("at most one framed summand in a direct sum")
    dims = a.dims + b.dims
    maps = tuple(block_diag(ma, mb) for ma, mb in zip(a.maps, b.maps))
    if a.framed:
        fv = a.framing_vector + (_ZERO,) * b.dims.main[0]
    elif b.framed:
        fv = (_ZERO,) * a.dims.main[0] + b.framing_vector
    else:
        fv = ()
    return QuiverRep(a.ell, dims, maps, fv)


# ---------------------------------------------------------------------------
# base change
# ---------------------------------------------------------------------------


def conjugate(rep: QuiverRep, transforms: list[RationalMatrix]) -> QuiverRep:
    """Apply an invertible base change g_i at every vertex: the arrow M_i
    becomes g_{i+1} M_i g_i^-1 and the framing vector v becomes g_0 v."""
    if len(transforms) != rep.ell:
        raise ValueError("one transform per vertex is required")
    changes = []
    for i, (g, d) in enumerate(zip(transforms, rep.dims.main)):
        if g.shape != (d, d):
            raise ValueError(f"transform {i} has shape {g.shape}, expected {(d, d)}")
        nums, e = _common(g.rows)
        changes.append((nums, e, *_inverse(nums)))
    return _conjugate(rep, changes)


def _conjugate(rep: QuiverRep, changes) -> QuiverRep:
    """The base change given at each vertex as (G, e, H, p), where
    g = G / e and g^-1 = e H / p with G and H integer.

    Each arrow g_{i+1} M_i g_i^-1 is one integer triple product
    G_{i+1} A H_i over M_i = A / c, divided once per entry by
    e_{i+1} c p_i / e_i; g_0 v is G_0 w over v = w / c, divided by e_0 c."""
    ell = rep.ell
    maps = []
    for i, m in enumerate(rep.maps):
        g, e_next = changes[(i + 1) % ell][:2]
        _, e, h, p = changes[i]
        a, c = _common(m.rows)
        product = _product(_product(g, a, m.ncols), h, m.ncols)
        den = e_next * c * p
        maps.append(
            RationalMatrix._built(
                tuple(tuple(Fraction(x * e, den) for x in row) for row in product), m.ncols
            )
        )
    fv = ()
    if rep.framed:
        g, e = changes[0][:2]
        (w,), c = _common((rep.framing_vector,))
        fv = tuple(Fraction(sum(x * y for x, y in zip(row, w)), e * c) for row in g)
    return QuiverRep(ell, rep.dims, tuple(maps), fv)


def _invertible_draw(n: int, rng) -> tuple[list[list[int]], list[list[int]], int]:
    """A random invertible n x n integer matrix G with entries in [-2, 2],
    drawn row by row, and (H, p) with G^-1 = H / p: one fraction-free
    elimination both inverts a draw and rejects a singular one, which is
    drawn again."""
    while True:
        g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            return (g, *_inverse(g))
        except ValueError:  # singular: draw again
            pass


def random_base_change(rep: QuiverRep, rng) -> QuiverRep:
    """The representation under a random integer base change at every
    vertex, drawn in vertex order by ``_invertible_draw``.

    Each inverse stays an integer matrix H over one integer p, and each
    arrow is one integer triple product G M H divided once per entry, so
    the inverse is never materialised as ``Fraction``s."""
    return _conjugate(
        rep, [(g, 1, h, p) for g, h, p in (_invertible_draw(d, rng) for d in rep.dims.main)]
    )
