"""Reduced chain complexes, exact reduced homology, and a memoised
homology oracle for the independence complexes of induced subgraphs.

Boundary matrices follow the alternating-sign rule on faces with
vertices in increasing order; the basis of each dimension is the
lexicographic order of sorted vertex tuples, so matrices are
reproducible bit-for-bit.  The public functions convert a complex's
facets once, on entry (``complexes._masks``); below them every facet
and face is a ``_mask`` bitmask, vertex v at bit v - 1.  The chain
complex is built on the faces of ``complexes._face_levels``, each size
in that order: a boundary face is the mask with one bit cleared, the
lowest bit, the smallest vertex, with the sign +1.  Only
``build_chain_complex`` decodes its bases into tuples.  Every build is
checked before anything is ranked: each entry must be +1 or -1 in a row
of the basis one dimension down, and ∂_i ∘ ∂_{i+1} must vanish, column
by column.  Ranks go from the top dimension down with clearing (the
twist of persistent homology): an i-face that is the pivot ``low`` of
the reduced boundary matrix one dimension up is the leading face of a
boundary, hence of a cycle, so its column is never reduced.

``InducedHomology`` answers one question: the nonzero reduced Betti
numbers of Ind(G[W]) for vertex bitmasks W of one graph G.  That is all
the link scan (Reisner, Buchsbaum, depth) and ``reduced_betti`` ask of a
flag complex Ind(G), G the complement of its 1-skeleton: the link of a
face F is Ind(G - N[F]); any other complex goes to the rank kernel.  Each
mask is settled by cones, joins, Engström's folds and Adamaszek's vertex
splits, in the one loop of ``InducedHomology.betti``, and only then by
the rank kernel on one connected piece's maximal independent sets,
listed as masks with no subgraph built, once per piece up to the
rotations and reflections of the vertex cycle that are automorphisms of G.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Generator, Optional, Sequence

from .complexes import Complex, _face_levels, _masks, _maximal_independent_sets, _vertices
from .errors import Frozen, InconsistencyError
from .fields import FieldChoice, SparseRow, rank_of_rows, rows_from_vectors
from .graphs import Graph, _component_masks

# Entries the memo of an InducedHomology keeps; the oldest goes first beyond this.
ORACLE_ENTRIES = 1 << 16
# Components one fold-and-split attempt of an InducedHomology may open
# before the component it started from goes to linear algebra.
SPLIT_BUDGET = 1 << 12


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


def _build_on_masks(facets: Collection[int]) -> ChainComplexData:
    """The reduced chain complex of the ``_mask`` facets, each basis the
    face masks of ``_face_levels`` in its order, the columns checked.  A
    boundary face is the mask with one bit cleared; the lowest bit, the
    smallest vertex, has the entry +1, and the signs alternate upward."""
    data = ChainComplexData(bases={})
    index: dict[int, int] = {}  # mask -> position among the (i-1)-faces
    for i, masks in enumerate(_face_levels(facets), -1):
        data.bases[i] = masks
        if i >= 0:
            cols = []
            for m in masks:
                col: SparseRow = {}
                sign, rest = 1, m
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
    data = _build_on_masks(_masks(c))
    data.bases = {i: list(map(_vertices, masks)) for i, masks in data.bases.items()}
    return data


def _assert_boundary_squares_to_zero(data: ChainComplexData) -> None:
    """Raise unless every stored entry is +/-1, every row is one of the
    faces one dimension down, and ∂_i ∘ ∂_{i+1} = 0.

    The (i-1)-faces are the columns of ∂_{i-1}, or the faces of
    ``bases[i - 1]`` where ∂_{i-1} is not stored; with neither, rows are
    not bounded.  With entries +/-1, ∂_i applied to a column of ∂_{i+1}
    is zero iff its +1 terms and its -1 terms fall on the same rows
    equally often: each ∂_i column is split once into its + rows and its
    - rows, and the two term lists of each composition must be equal
    once sorted.
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
        outside = f"a boundary column of dimension {i} has a row outside the faces of dimension {i - 1}; chain complex construction is broken"
        if i - 1 not in split:
            rows = set().union(*data.boundaries[i])
            if i - 1 in data.bases and rows and (min(rows) < 0 or max(rows) >= len(data.bases[i - 1])):
                raise InconsistencyError(outside)
            continue
        # each row indexes the split columns one dimension down; padding them
        # with as many entries that are not row tuples makes a row outside
        # 0..count-1, a negative one included, raise instead of wrapping round
        lower_plus, lower_minus = split[i - 1]
        pad = [None] * len(lower_plus)
        lower_plus, lower_minus = lower_plus + pad, lower_minus + pad
        try:
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
        except (IndexError, TypeError):
            raise InconsistencyError(outside) from None


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
    """Exact reduced Betti numbers of c over the chosen field: those of its
    homology oracle when c is flag, else those of the rank kernel."""
    facets = _masks(c)
    oracle = _flag_oracle(facets, c.vertex_count, field)
    if oracle is None:
        return _betti_by_ranks(facets, field)
    nonzero = oracle.betti(oracle.full)
    return BettiTable(tuple((i, nonzero.get(i, 0)) for i in range(-1, c.dim() + 1)))


def _betti_by_ranks(facets: Collection[int], field: FieldChoice) -> BettiTable:
    """The rank kernel on ``_mask`` facets: ranks go from the top down;
    each ∂_i is reduced without the columns cleared by the lows of ∂_{i+1}."""
    data = _build_on_masks(facets)
    top = max(data.bases)
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


def kernel_rank_of(vectors: Sequence[Sequence], field: FieldChoice) -> int:
    """Rank of the subspace spanned by dense exact vectors.  Over GF(p) an
    entry whose denominator p divides has no image and raises ``ValueError``."""
    rows = rows_from_vectors(vectors)
    bad = next((x for vec in vectors for x in vec if field.p and x.denominator % field.p == 0), None)
    if bad is not None:
        raise ValueError(f"entry {bad} has no image in GF({field.p})")
    return rank_of_rows(rows, field)


class InducedHomology:
    """The nonzero reduced Betti numbers of Ind(G[mask]) over one field,
    for vertex bitmasks.

    Bit i of a mask is the vertex of internal index i of ``g``.  The empty
    mask gives H~_{-1} = 1.  An isolated vertex makes Ind(G[mask]) a cone,
    hence acyclic.  Otherwise G[mask] splits into connected components
    and Ind(G[mask]) is the join of theirs, so over a field
    H~_{k+1}(A * B) = sum over i + j = k of H~_i(A) (x) H~_j(B).  A
    component W of two or more vertices is settled in this order:

    1. fold: a vertex v adjacent to every neighbour in W of another
       vertex u can go, H~(W) = H~(W - v) (Engström);
    2. dominated split: Ind(W) = Ind(W - v) ∪ v * Ind(W - N[v]), which
       meet in Ind(W - N[v]); at a neighbour v of some u with N[u] ⊆ N[v],
       Ind(W - N[v]) lies in the cone u * Ind(W - N[v]) inside Ind(W - v),
       so the Mayer-Vietoris map between them is zero in every degree and
       H~_i(W) = H~_i(W - v) + H~_{i-1}(W - N[v]) (Adamaszek);
    3. split at the lowest vertex v, the same sum when no degree i has
       both H~_i(W - N[v]) and H~_i(W - v) nonzero, for then that map is
       zero too;
    4. otherwise the rank kernel on Ind(G[W]).

    The masks a fold or a split leaves are answered by the same rules,
    component by component, cones and memo included, in the one loop of
    ``betti`` rather than by recursion.  The folds and splits that start
    from one component W of the asked mask are one attempt: it opens at
    most ``SPLIT_BUDGET`` components, W included, and runs no linear
    algebra; an undecided lowest-vertex split or an exhausted budget
    gives the attempt up and W alone goes to the rank kernel.  The count
    restarts for the next component of the asked mask.

    Each component's Betti numbers are kept once, under its least image by
    the rotations and reflections of the internal indices 0..n-1 that are
    automorphisms of g (all 2n of them for a circulant, possibly none but
    the identity for other graphs), and looked up under that key only.
    The memo holds one entry per symmetry class of components, at most
    ``ORACLE_ENTRIES`` classes; ``full_report`` builds one oracle on its
    graph and decides one connected component per class, as a mask: a
    face F by its link, Ind(G[W - N[F]]).  It answers only Betti numbers;
    a caller that needs a dimension reads it from the complex's facets.
    """

    def __init__(self, g: Graph, field: FieldChoice) -> None:
        self.graph = g
        self.field = field
        n = g.vertex_count
        self._n = n
        self.full = (1 << n) - 1  # the mask of every vertex: Ind(G) itself
        self._memo: dict[int, dict[int, int]] = {}  # component -> nonzero reduced Betti numbers
        # rotation amounts r, applied to the mask itself or to its mirror
        # image, whose vertex maps are automorphisms of g: vertex i of g, or
        # of its mirror image, goes to i + r together with its neighbours.
        # The rotations among them are the multiples of the least, which
        # divides n; the reflections are none or one coset of those, so
        # the first that maps lies below that least rotation.
        adj = g.adj
        self._closed = [a | 1 << i for i, a in enumerate(adj)]  # closed neighbourhoods, for ``_fold``
        mirrored = [self._mirror(a) for a in reversed(adj)]  # the adjacency of g's mirror image

        def maps(m: list[int], r: int) -> bool:
            return all(self._rotate(m[i], r) == adj[(i + r) % n] for i in range(n))

        top = max(n, 1)
        step = next((r for r in range(1, n) if n % r == 0 and maps(adj, r)), top)
        self._rotations = list(range(0, top, step))
        first = next((r for r in range(step) if maps(mirrored, r)), None)
        self._reflections = [] if first is None else list(range(first, top, step))

    @cached_property
    def facets(self) -> frozenset[int]:
        """Ind(G)'s facets as masks of internal indices, listed once for the
        oracle and its callers, unless ``_flag_oracle`` set them."""
        return frozenset(_maximal_independent_sets(self.graph))

    def _rotate(self, mask: int, r: int) -> int:
        return ((mask << r) | (mask >> (self._n - r))) & self.full

    def _mirror(self, mask: int) -> int:
        return int(format(mask, f"0{self._n}b")[::-1], 2)

    def _key(self, mask: int) -> int:
        """The least image of ``mask`` by the rotations and reflections that
        are automorphisms of g.

        When every rotation is one, the least image puts a longest circular
        run of zeros at the top bits, so only the rotations that do are
        tried: the starts of those runs are what survives of the doubled
        complement when each step keeps a bit only if the bit above it is
        kept too.  A run that starts at bit p goes to the top under the
        rotation by n - length - p, and in the mirror image under the
        rotation by p.  With fewer rotations, each listed map is tried."""
        n, full = self._n, self.full
        if len(self._rotations) < n:
            key = min(((mask << r) | (mask >> (n - r))) & full for r in self._rotations)
            if self._reflections:
                m = self._mirror(mask)
                key = min(key, min(((m << r) | (m >> (n - r))) & full for r in self._reflections))
            return key
        zeros = full ^ mask
        if not (mask and zeros):
            return mask  # every rotation fixes it
        run, top = zeros | zeros << n, n - 1
        while run & run >> 1:
            run &= run >> 1
            top -= 1
        starts, key = run & full, mask
        m = self._mirror(mask) if self._reflections else 0
        while starts:
            low = starts & -starts
            starts ^= low
            p = low.bit_length() - 1
            r = (top - p) % n
            key = min(key, ((mask << r) | (mask >> (n - r))) & full)
            if m:
                key = min(key, ((m << p) | (m >> (n - p))) & full)
        return key

    def orbit_vertex(self, mask: int) -> int:
        """The least vertex of ``mask``, numbered from 1, when the rotations
        that are automorphisms of g and map the mask onto itself carry it
        to every vertex of the mask, else 0, as for the empty mask.  Those
        rotations are automorphisms of G[mask], so they map faces of
        Ind(G[mask]) to faces with isomorphic links, and every orbit of
        faces but the empty face's meets the faces through that vertex."""
        low = mask & -mask
        orbit = 0
        for r in self._rotations:
            if self._rotate(mask, r) == mask:
                orbit |= self._rotate(low, r)
        return low.bit_length() if mask and orbit == mask else 0

    def _store(self, mask: int, betti: dict[int, int]) -> None:
        if len(self._memo) >= ORACLE_ENTRIES:
            del self._memo[next(iter(self._memo))]
        self._memo[mask] = betti

    def _fold(self, w: int) -> tuple[int, int]:
        """Two vertices of the connected w, as bits: a fold, some v adjacent
        to every neighbour in w of some other vertex u, or 0 if there is
        none; and where there is no fold, a dominating vertex, the first
        neighbour v of some u adjacent to every other neighbour of u in w,
        so N[u] ⊆ N[v], or 0 if there is none.

        Each such v lies in the closed neighbourhood of every neighbour of
        u, outside N(u) for a fold and inside it for a dominating v, so the
        search intersects those: one AND per edge, and no loop over pairs
        of vertices.  Once a dominating vertex is found, it seeks folds only.
        """
        adj, closed = self.graph.adj, self._closed
        rest, dominating = w, 0
        while rest:
            u = rest & -rest
            rest ^= u
            nbrs = adj[u.bit_length() - 1] & w
            common = w ^ u ^ nbrs if dominating else w ^ u
            todo = nbrs
            while todo and common:
                x = todo & -todo
                todo ^= x
                common &= closed[x.bit_length() - 1]
            fold = common & ~nbrs
            if fold:
                return fold & -fold, 0
            dominating = dominating or common & -common
        return 0, dominating

    def _split(self, w: int) -> Generator:
        """Steps to the nonzero reduced Betti numbers of the connected w
        by a fold or a split, at a dominating vertex if there is one, or to
        None where the split at the lowest vertex is undecided."""
        v, dominating = self._fold(w)
        if v:
            return (yield from self._betti_steps(w ^ v))
        v = dominating or w & -w
        deletion = yield from self._betti_steps(w ^ v)
        link = yield from self._betti_steps(w & ~v & ~self.graph.adj[v.bit_length() - 1])
        if not dominating and any(i in deletion for i in link):
            return None  # the map H~_i(link) -> H~_i(deletion) may be nonzero
        out = dict(deletion)
        for i, b in link.items():
            out[i + 1] = out.get(i + 1, 0) + b
        return out

    def _betti_steps(self, mask: int) -> Generator:
        """Steps to the nonzero reduced Betti numbers of Ind(G[mask]):
        each component of two or more vertices is yielded for its own."""
        comps = _component_masks(self.graph, mask)
        if any(c & (c - 1) == 0 for c in comps):
            return {}  # an isolated vertex: a cone
        out = {-1: 1}
        for comp in comps:
            out = _join(out, (yield comp))
            if not out:
                break
        return out

    def betti(self, mask: int) -> dict[int, int]:
        """Nonzero reduced Betti numbers of Ind(G[mask]), by degree.

        The stack holds ``_betti_steps(mask)`` and, above it, the ``_split``
        steps of one attempt's components, depth first.  Each answer is
        stored under its key, then sent to the steps below.
        """
        stack = [(mask, mask, self._betti_steps(mask))]
        betti, opened = None, 0
        while True:
            try:
                need = stack[-1][2].send(betti)
            except StopIteration as stop:
                betti = stop.value
                if len(stack) == 1:
                    return betti
                w, k, _ = stack.pop()
            else:
                k = self._key(need)
                betti = self._memo.get(k)
                if betti is not None:
                    continue
                opened = 1 if len(stack) == 1 else opened + 1
                if opened <= SPLIT_BUDGET:
                    stack.append((need, k, self._split(need)))
                    continue
                w = need
            if betti is None:  # the attempt is given up
                if len(stack) > 1:
                    w, k, _ = stack[1]
                    del stack[1:]
                facets = self.facets if w == self.full else _maximal_independent_sets(self.graph, w)
                betti = {i: b for i, b in _betti_by_ranks(facets, self.field).by_dim if b}
            self._store(k, betti)


def _flag_oracle(facets: frozenset[int], n: int, field: FieldChoice) -> Optional[InducedHomology]:
    """The oracle over the field, with these ``facets``, when the complex
    of the ``_mask`` facets on 1..n is flag: when they are the maximal
    independent sets of G, the complement of its 1-skeleton; else None."""
    skeleton = [1 << i for i in range(n)]  # closed neighbourhoods: {v} is maximal in G if v is in no face
    for m in facets:
        for v in _vertices(m):
            skeleton[v - 1] |= m
    g = Graph(adj=tuple(((1 << n) - 1) & ~s for s in skeleton), labels=tuple(range(1, n + 1)))
    if facets != set(_maximal_independent_sets(g)):
        return None
    oracle = InducedHomology(g, field)
    oracle.facets = facets
    return oracle


def _join(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Nonzero reduced Betti numbers of the join of two complexes with
    these, over a field: H~_{k+1}(A * B) = sum over i + j = k of H~_i(A) H~_j(B)."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j + 1] = out.get(i + j + 1, 0) + x * y
    return out

