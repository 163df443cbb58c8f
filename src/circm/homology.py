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
checked before anything is ranked: each entry must be +1 or -1 in a row
of the basis one dimension down, and ∂_i ∘ ∂_{i+1} must vanish, column
by column.  Ranks are taken from the
top dimension down with clearing (the twist of persistent homology): an
i-face that is the pivot ``low`` of the reduced boundary matrix one
dimension up is the leading face of a boundary, hence of a cycle, so its
column of the i-th boundary matrix is a combination of columns before
it and is never reduced.

``InducedHomology`` answers one question: the nonzero reduced Betti
numbers of Ind(G[W]) for vertex bitmasks W of one graph G.  That is all
the homology Reisner's criterion and Hochster's formula ask of a flag
complex Ind(G): the link of a face F is Ind(G - N[F]) and the
restriction to W is Ind(G[W]); the dimension of a link comes from the
facets of the complex, not from the oracle.  Each mask is settled in
the order cone (an isolated vertex), join (one piece per connected
component), fold (Engström's fold lemma), split (Adamaszek's vertex
splitting, when its Mayer-Vietoris map is zero for want of a common
degree), and only then linear algebra: ``reduced_betti`` of one
connected piece, once per piece up to the rotations and reflections of
the vertex cycle that are automorphisms of G.  The folds and splits of
one piece run on an explicit stack, open at most ``SPLIT_BUDGET``
pieces and never run linear algebra themselves: a piece on the way
that would need it gives the attempt up.
"""

from __future__ import annotations

from functools import cached_property
from typing import Generator, Optional, Sequence

from .complexes import Complex, _face_levels, _face_tuple, f_vector, independence_complex
from .errors import Frozen, InconsistencyError
from .fields import FieldChoice, SparseRow, rank_of_rows, rows_from_vectors
from .graphs import Graph, _component_masks, induced_subgraph

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
    2. split at the lowest vertex v: Ind(W) = Ind(W - v) ∪ v * Ind(W - N[v]),
       which meet in Ind(W - N[v]); when no degree i has both
       H~_i(W - N[v]) and H~_i(W - v) nonzero, the Mayer-Vietoris map
       between them is zero and H~_i(W) = H~_i(W - v) + H~_{i-1}(W - N[v])
       (Adamaszek);
    3. otherwise ``reduced_betti`` of Ind(G[W]).

    The masks a fold or a split leaves are answered by the same rules,
    component by component, cones and memo included, on an explicit stack
    rather than by recursion.  One such attempt opens at most
    ``SPLIT_BUDGET`` components and runs no linear algebra: a component
    on the way that would need it, or an exhausted budget, gives the
    attempt up and W alone goes to ``reduced_betti``.

    Each component's Betti numbers are kept under its least image by the
    rotations and reflections of the internal indices 0..n-1 that are
    automorphisms of g (all 2n of them for a circulant, possibly none but
    the identity for other graphs).  The memo keeps at most
    ``ORACLE_ENTRIES`` entries.  The oracle answers nothing but Betti
    numbers: a caller that needs a dimension reads it from the facets of
    the complex, which it already holds.
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
        mirrored = [self._mirror(a) for a in reversed(adj)]  # the adjacency of g's mirror image

        def maps(m: list[int], r: int) -> bool:
            return all(self._rotate(m[i], r) == adj[(i + r) % n] for i in range(n))

        top = max(n, 1)
        step = next((r for r in range(1, n) if n % r == 0 and maps(adj, r)), top)
        self._rotations = list(range(0, top, step))
        first = next((r for r in range(step) if maps(mirrored, r)), None)
        self._reflections = [] if first is None else list(range(first, top, step))

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

    def _cached(self, comp: int) -> tuple[Optional[dict[int, int]], int]:
        """The memo's Betti numbers for comp or None, and the mask they are
        kept under: comp itself, else its symmetry key, and ones found only
        under the key are stored under comp too, so a component seen again
        skips the key computation."""
        betti = self._memo.get(comp)
        if betti is not None:
            return betti, comp
        k = self._key(comp)
        betti = self._memo.get(k)
        if betti is not None:
            self._store(comp, betti)
        return betti, k

    def _store(self, mask: int, betti: dict[int, int]) -> None:
        if len(self._memo) >= ORACLE_ENTRIES:
            del self._memo[next(iter(self._memo))]
        self._memo[mask] = betti

    def _solve(self, comp: int) -> Optional[dict[int, int]]:
        """Nonzero reduced Betti numbers of the connected comp by folds and
        splits, or None once a split is undecided or more than
        ``SPLIT_BUDGET`` components would be opened.

        The components ``_split`` asks for are opened depth first on an
        explicit stack, so a long chain of them never recurses; each answer
        goes to the split that asked for it and into the memo.
        """
        betti, k = self._cached(comp)
        if betti is not None:
            return betti
        stack = [(comp, k, self._split(comp))]
        opened = 1
        while stack:
            w, k, steps = stack[-1]
            try:
                need = steps.send(betti)
            except StopIteration as stop:
                betti = stop.value
                if betti is None:
                    return None
                self._store(k, betti)
                if k != w:
                    self._store(w, betti)
                stack.pop()
                continue
            betti, k = self._cached(need)
            if betti is None:
                if opened == SPLIT_BUDGET:
                    return None
                opened += 1
                stack.append((need, k, self._split(need)))
        return betti

    def _entry(self, comp: int) -> dict[int, int]:
        """Nonzero reduced Betti numbers of one component of two or more
        vertices: by folds and splits, else by ``reduced_betti``."""
        betti = self._solve(comp)
        if betti is None:
            labels = [self.graph.labels[i] for i in range(self._n) if (comp >> i) & 1]
            c = self.whole if comp == self.full else independence_complex(induced_subgraph(self.graph, labels))
            betti = {i: b for i, b in reduced_betti(c, self.field).by_dim if b}
            self._store(self._key(comp), betti)
            self._store(comp, betti)
        return betti

    def _fold(self, w: int) -> int:
        """A vertex of the connected w, as a bit, adjacent to every
        neighbour in w of some other vertex u, or 0 if there is none.

        Such a v lies in the neighbourhood of each neighbour of u, so the
        search intersects those neighbourhoods: one AND per edge, and no
        loop over pairs of vertices.
        """
        adj = self.graph.adj
        rest = w
        while rest:
            u = rest & -rest
            rest ^= u
            common, nbrs = w ^ u, adj[u.bit_length() - 1] & w
            while nbrs and common:
                x = nbrs & -nbrs
                nbrs ^= x
                common &= adj[x.bit_length() - 1]
            if common:
                return common & -common
        return 0

    def _split(self, w: int) -> Generator:
        """Steps to the nonzero reduced Betti numbers of the connected w
        by a fold or a split, or to None where the split is undecided."""
        v = self._fold(w)
        if v:
            return (yield from self._betti_steps(w ^ v))
        v = w & -w
        deletion = yield from self._betti_steps(w ^ v)
        link = yield from self._betti_steps(w & ~v & ~self.graph.adj[v.bit_length() - 1])
        if any(i in deletion for i in link):
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
        """Nonzero reduced Betti numbers of Ind(G[mask]), by degree."""
        steps = self._betti_steps(mask)
        betti = None
        while True:
            try:
                comp = steps.send(betti)
            except StopIteration as stop:
                return stop.value
            betti = self._entry(comp)


def _join(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Nonzero reduced Betti numbers of the join of two complexes with
    these, over a field: H~_{k+1}(A * B) = sum over i + j = k of H~_i(A) H~_j(B)."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j + 1] = out.get(i + j + 1, 0) + x * y
    return out

