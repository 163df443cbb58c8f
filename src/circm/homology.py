"""Reduced chain complexes, exact reduced homology, and a memoised
homology oracle for the independence complexes of induced subgraphs.

Boundary matrices follow the alternating-sign rule on faces with
vertices in increasing order; the basis of each dimension is the
lexicographic order of sorted vertex tuples, so matrices are
reproducible bit-for-bit.  The chain complex is built on the face
bitmasks of ``complexes._face_levels``, vertex v of n being bit n - v,
and never on vertex tuples: among faces of one size, descending masks
are ascending tuples, so sorting the masks gives the lexicographic
bases; the boundary faces of a face are its mask with one bit cleared,
and the highest bit, the smallest vertex, has the sign +1.
``reduced_betti`` ranks columns over mask bases; only
``build_chain_complex`` decodes its bases into tuples.  Every build is
checked before anything is ranked: each entry must be +1 or -1, and
∂_i ∘ ∂_{i+1} must vanish, column by column.  Ranks are taken from the
top dimension down with clearing (the twist of persistent homology): an
i-face that is the pivot ``low`` of the reduced boundary matrix one
dimension up is the leading face of a boundary, hence of a cycle, so its
column of the i-th boundary matrix is a combination of columns before
it and is never reduced.

``InducedHomology`` answers H~_*(Ind(G[W])) for vertex bitmasks W of one
graph G.  That is all Reisner's criterion and Hochster's formula ask of
a flag complex Ind(G): the link of a face F is Ind(G - N[F]) and the
restriction to W is Ind(G[W]).  Cones and joins are settled without
linear algebra, and only connected pieces of two or more vertices reach
``reduced_betti``, once per piece up to the rotations and reflections
of the vertex cycle that are automorphisms of G.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .complexes import Complex, _face_levels, _face_tuple, f_vector, independence_complex
from .errors import Frozen, InconsistencyError
from .fields import FieldChoice, SparseRow, rank_of_rows, rows_from_vectors
from .graphs import Graph, _component_masks, induced_subgraph

# Entries an InducedHomology keeps; the oldest goes first beyond this.
ORACLE_ENTRIES = 1 << 16


class ChainComplexData:
    """Ordered face bases and sparse boundary columns of a complex.

    ``bases[i]`` lists the i-faces as sorted vertex tuples; for i >= 0,
    ``boundaries[i]`` holds one column per i-face, mapping the index of
    an (i-1)-face to its +/-1 coefficient, over every field.
    """

    __slots__ = ("bases", "boundaries")

    def __init__(self, bases: dict[int, list[tuple[int, ...]]], boundaries: Optional[dict[int, list[SparseRow]]] = None) -> None:
        self.bases = bases
        self.boundaries = {} if boundaries is None else boundaries

    def face_count(self, i: int) -> int:
        return len(self.bases.get(i, ()))


def _build_on_masks(c: Complex) -> ChainComplexData:
    """The reduced chain complex of c with each basis left as face masks
    in basis order (descending), its boundary columns checked.

    The i-faces have i + 1 bits; the highest bit is the smallest vertex,
    whose column entry is +1, so the lowest bit's entry is (-1)^i.
    """
    levels = _face_levels(c)
    data = ChainComplexData(bases={})
    index: dict[int, int] = {}  # mask -> position among the (i-1)-faces
    for i in range(-1, c.dim() + 1):
        masks = sorted(levels[i + 1], reverse=True)
        levels[i + 1] = set()  # released once its columns are built
        data.bases[i] = masks
        if i >= 0:
            first = -1 if i % 2 else 1
            cols = []
            for m in masks:
                col: SparseRow = {}
                sign, rest = first, m
                while rest:
                    low = rest & -rest
                    col[index[m ^ low]] = sign
                    sign = -sign
                    rest ^= low
                cols.append(col)
            data.boundaries[i] = cols
        index = {m: k for k, m in enumerate(masks)}
    _assert_boundary_squares_to_zero(data)
    return data


def build_chain_complex(c: Complex) -> ChainComplexData:
    """Bases and boundary matrices of the reduced chain complex of c."""
    data = _build_on_masks(c)
    n = c.vertex_count
    data.bases = {i: [_face_tuple(m, n) for m in masks] for i, masks in data.bases.items()}
    return data


def _assert_boundary_squares_to_zero(data: ChainComplexData) -> None:
    """Raise unless every stored entry is +/-1 and ∂_i ∘ ∂_{i+1} = 0.

    With entries +/-1, ∂_i applied to a column of ∂_{i+1} is zero iff its
    +1 terms and its -1 terms fall on the same rows equally often: each
    ∂_i column is split once into its + rows and its - rows, and the two
    term lists of each composition must be equal once sorted.
    """
    split: dict[int, tuple[list[tuple[int, ...]], list[tuple[int, ...]]]] = {}
    for i, cols in data.boundaries.items():
        plus_of, minus_of = split[i] = ([], [])
        for col in cols:
            plus, minus = [], []
            for r, v in col.items():
                if v == 1:
                    plus.append(r)
                elif v == -1:
                    minus.append(r)
                else:
                    raise InconsistencyError(f"boundary entry {v!r} in dimension {i} is not +/-1; chain complex construction is broken")
            plus_of.append(tuple(plus))
            minus_of.append(tuple(minus))
    for i, (plus_of, minus_of) in split.items():
        if i - 1 not in split:
            continue
        lower_plus, lower_minus = split[i - 1]
        for plus, minus in zip(plus_of, minus_of):
            pos: list[int] = []
            neg: list[int] = []
            for k in plus:
                pos += lower_plus[k]
                neg += lower_minus[k]
            for k in minus:
                pos += lower_minus[k]
                neg += lower_plus[k]
            pos.sort()
            neg.sort()
            if pos != neg:
                raise InconsistencyError("boundary composition is nonzero; chain complex construction is broken")


class BettiTable(Frozen):
    """dim_k H~_i per dimension; zero outside the stored range."""

    __slots__ = ("by_dim",)

    def __init__(self, by_dim: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "by_dim", by_dim)

    def __getitem__(self, i: int) -> int:
        for d, v in self.by_dim:
            if d == i:
                return v
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.by_dim)


def reduced_betti(c: Complex, field: FieldChoice) -> BettiTable:
    """Exact reduced Betti numbers of c over the chosen field.

    Ranks go from the top dimension down; each ∂_i is reduced without
    the columns cleared by the pivot lows of ∂_{i+1}.
    """
    data = _build_on_masks(c)
    top = c.dim()
    ranks = {}
    cleared: set[int] = set()  # lows of ∂_{i+1}: ∂_i columns spanned by earlier ones
    for i in range(top, -1, -1):
        cols = data.boundaries[i]
        ranks[i] = rank = rank_of_rows([col for k, col in enumerate(cols) if k not in cleared], field)
        cleared = rank.lows
    out = []
    for i in range(-1, top + 1):
        f_i = data.face_count(i)
        h = f_i - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if h < 0:
            raise InconsistencyError("negative Betti number; rank computation is broken")
        out.append((i, h))
    return BettiTable(tuple(out))


def euler_check(c: Complex, field: FieldChoice) -> bool:
    """Verify the reduced Euler characteristic identity on c.

    Always true when the engine is correct; a False return is a bug
    signal, not a property of the input.  It can only catch a chain basis
    whose face counts differ from ``f_vector``: ``reduced_betti`` sets
    H~_i = f_i - r_i - r_{i+1}, so in the alternating sum the boundary
    ranks r_i telescope away: a wrong rank goes undetected here (one that
    makes a Betti number negative is rejected by ``reduced_betti``).
    """
    betti = reduced_betti(c, field)
    lhs = sum((-1 if i % 2 else 1) * betti[i] for i in range(-1, c.dim() + 1))
    rhs = sum((-1) ** (k + 1) * fk for k, fk in enumerate(f_vector(c).f))
    return lhs == rhs


def kernel_rank_of(vectors: Sequence[Sequence], field: FieldChoice) -> int:
    """Rank of the subspace spanned by dense exact vectors."""
    rows = rows_from_vectors(vectors)
    return rank_of_rows(rows, field)


class InducedHomology:
    """Reduced homology of Ind(G[mask]) over one field, for vertex bitmasks.

    Bit i of a mask is the vertex of internal index i of ``g``.  The empty
    mask gives H~_{-1} = 1.  An isolated vertex makes Ind(G[mask]) a cone,
    hence acyclic.  Otherwise G[mask] splits into connected components
    and Ind(G[mask]) is the join of theirs, so over a field
    H~_{k+1}(A * B) = sum over i + j = k of H~_i(A) (x) H~_j(B).  Each
    component is computed once, memoised under its least image by the
    rotations and reflections of the internal indices 0..n-1 that are
    automorphisms of g (all 2n of them for a circulant, possibly none
    but the identity for other graphs).  At most ``ORACLE_ENTRIES``
    entries are kept.
    """

    def __init__(self, g: Graph, field: FieldChoice) -> None:
        self.graph = g
        self.field = field
        n = g.vertex_count
        self._n = n
        self.full = (1 << n) - 1  # the mask of every vertex: Ind(G) itself
        self._memo: dict[int, tuple[int, dict[int, int]]] = {}
        # rotation amounts r, applied to the mask itself or to its mirror
        # image, whose vertex maps are automorphisms of g: vertex i of g, or
        # of its mirror image, goes to i + r together with its neighbours
        adj = g.adj
        mirrored = [self._mirror(a) for a in reversed(adj)]  # the adjacency of g's mirror image
        self._rotations, self._reflections = (
            [r for r in range(max(n, 1)) if all(self._rotate(m[i], r) == adj[(i + r) % n] for i in range(n))] for m in (adj, mirrored)
        )

    @cached_property
    def whole(self) -> Complex:
        """Ind(G) itself, built once for the oracle and its callers."""
        return independence_complex(self.graph)

    def _rotate(self, mask: int, r: int) -> int:
        return ((mask << r) | (mask >> (self._n - r))) & self.full

    def _mirror(self, mask: int) -> int:
        return int(format(mask, f"0{self._n}b")[::-1], 2)

    def _key(self, mask: int) -> int:
        n, full = self._n, self.full
        key = min(((mask << r) | (mask >> (n - r))) & full for r in self._rotations)
        if self._reflections:
            m = self._mirror(mask)
            key = min(key, min(((m << r) | (m >> (n - r))) & full for r in self._reflections))
        return key

    def _entry(self, comp: int) -> tuple[int, dict[int, int]]:
        """(dimension, nonzero reduced Betti numbers) of one component.

        Stored under the component's own mask as well as under its key,
        so a component seen again skips the key computation.
        """
        entry = self._memo.get(comp)
        if entry is None:
            key = self._key(comp)
            entry = self._memo.get(key)
            if entry is None:
                labels = [self.graph.labels[i] for i in range(self._n) if (comp >> i) & 1]
                c = self.whole if comp == self.full else independence_complex(induced_subgraph(self.graph, labels))
                table = reduced_betti(c, self.field)
                entry = (c.dim(), {i: b for i, b in table.by_dim if b})
                self._store(key, entry)
            self._store(comp, entry)
        return entry

    def _store(self, mask: int, entry: tuple[int, dict[int, int]]) -> None:
        if len(self._memo) >= ORACLE_ENTRIES:
            del self._memo[next(iter(self._memo))]
        self._memo[mask] = entry

    def betti(self, mask: int) -> dict[int, int]:
        """Nonzero reduced Betti numbers of Ind(G[mask]), by degree."""
        return self._betti(_component_masks(self.graph, mask))

    def dim(self, mask: int) -> int:
        """Dimension of Ind(G[mask]): one less than the independence number of G[mask]."""
        return self._dim(_component_masks(self.graph, mask))

    def table(self, mask: int) -> BettiTable:
        """Every reduced Betti number of Ind(G[mask]), as ``reduced_betti`` gives them."""
        comps = _component_masks(self.graph, mask)
        betti = self._betti(comps)
        return BettiTable(tuple((i, betti.get(i, 0)) for i in range(-1, self._dim(comps) + 1)))

    def _betti(self, comps: list[int]) -> dict[int, int]:
        if any(c & (c - 1) == 0 for c in comps):
            return {}  # an isolated vertex: a cone
        out = {-1: 1}
        for comp in comps:
            joined: dict[int, int] = {}
            for j, b in self._entry(comp)[1].items():
                for i, a in out.items():
                    joined[i + j + 1] = joined.get(i + j + 1, 0) + a * b
            if not joined:
                return {}
            out = joined
        return out

    def _dim(self, comps: list[int]) -> int:
        return sum(1 if c & (c - 1) == 0 else self._entry(c)[0] + 1 for c in comps) - 1
