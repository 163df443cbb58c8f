"""Simplicial complexes stored by their facet families.

A complex is a set of facets (inclusion-maximal faces) over an ambient
vertex range 1..vertex_count.  The complex whose only face is the empty
set is represented by the single facet frozenset() and has dimension -1.
Vertices of links keep their original labels.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Optional

from .errors import Frozen
from .graphs import Graph, _component_masks


def _maximal(sets: Iterable[frozenset[int]]) -> frozenset[frozenset[int]]:
    """Inclusion-maximal elements of a family of sets."""
    by_size = sorted(set(sets), key=len, reverse=True)
    out: list[frozenset[int]] = []
    for s in by_size:
        if not any(s < t for t in out):
            out.append(s)
    return frozenset(out)


class Complex(Frozen):
    """A complex by its ambient vertex count and its facets; equal
    complexes hash equal, so one can key a cache."""

    __slots__ = ("vertex_count", "facets")

    def __init__(self, vertex_count: int, facets: frozenset[frozenset[int]]) -> None:
        if type(vertex_count) is not int or vertex_count < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {vertex_count!r}")
        if not facets:
            raise ValueError("facet family must be nonempty; use the single facet {} for the empty complex")
        for f in facets:
            for v in f:
                if type(v) is not int or not 1 <= v <= vertex_count:  # a bit of ``_mask``; True is no vertex 1
                    raise ValueError(f"vertex {v!r} is not an int in the ambient range 1..{vertex_count}")
        # only a smaller facet can lie in another, so a pure family needs no comparison
        fs = sorted(facets, key=len)
        sizes = [len(f) for f in fs]
        for a in fs:
            for b in fs[bisect_right(sizes, len(a)) :]:
                if a < b:
                    raise ValueError(f"facets are not an antichain: {set(a)} < {set(b)}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "facets", facets)

    def __eq__(self, other) -> bool:
        if type(other) is not Complex:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.facets))

    @classmethod
    def from_facets(cls, vertex_count: int, facets: Iterable[Iterable[int]], reduce: bool = False) -> "Complex":
        fams = [frozenset(f) for f in facets]
        if reduce:
            fams = list(_maximal(fams))
        return cls(vertex_count, frozenset(fams))

    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    def has_face(self, face: Iterable[int]) -> bool:
        fs = frozenset(face)
        return any(fs <= f for f in self.facets)


def _mask(face: Iterable[int]) -> int:
    """The vertex bitmask of a face: vertex v at bit v - 1."""
    return sum(1 << (v - 1) for v in face)


def _vertices(mask: int) -> tuple[int, ...]:
    """The sorted vertices of a ``_mask`` bitmask, one step per vertex."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _masks(c: Complex) -> frozenset[int]:
    """c's facets as ``_mask`` bitmasks: the facet format below the API."""
    return frozenset(map(_mask, c.facets))


def _face_levels(facets: Collection[int], through: int = 0) -> Iterator[list[int]]:
    """The faces of the ``_mask`` facets' complex by size, from the empty
    face up, each level built only when asked for: a list of masks in
    lexicographic order of the vertex tuples.  Level k + 1 is F | x for
    each face F of level k, in order, and each x above F's largest vertex
    that lies with F in some facet.  A face carries its facets, as a
    bitset of their indices, and its candidates, cut at each step to the
    union of the facets through the vertex added.  With ``through``, a
    vertex, only the faces whose least vertex it is follow the empty face."""
    yield [0]
    n = max(max(facets, default=0).bit_length(), through)
    holders = [0] * n  # the facets through each vertex, by index bits
    star = [0] * n  # the union of those facets
    for j, m in enumerate(facets):
        for v in _vertices(m):
            holders[v - 1] |= 1 << j
            star[v - 1] |= m
    starts = [through - 1] if through else range(n)
    level = [(1 << i, holders[i], star[i] & -(2 << i)) for i in starts if holders[i]]  # -(2 << i): the bits above i
    while level:
        yield [face for face, _, _ in level]
        below, level = level, []
        for face, held, rest in below:
            while rest:
                x = rest & -rest
                rest ^= x  # only the candidates above x are left
                i = x.bit_length() - 1
                if held & holders[i]:
                    level.append((face | x, held & holders[i], rest & star[i]))


@lru_cache(maxsize=256)
def faces(c: Complex) -> frozenset[frozenset[int]]:
    """Every face of c, the empty face included."""
    return frozenset(frozenset(_vertices(m)) for level in _face_levels(_masks(c)) for m in level)


class FHVectors(Frozen):
    """f-vector (f_{-1}, ..., f_D) and h-vector (h_0, ..., h_{D+1})."""

    __slots__ = ("dim", "f", "h")

    def __init__(self, dim: int, f: tuple[int, ...], h: tuple[int, ...]) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "h", h)


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """Binomial transform h_k = sum_i (-1)^(k-i) C(D+1-i, k-i) f_{i-1}."""
    dim = len(f) - 2
    h = []
    for k in range(dim + 2):
        h.append(sum((-1) ** (k - i) * math.comb(dim + 1 - i, k - i) * f[i] for i in range(k + 1)))
    return tuple(h)


def f_vector(c: Complex) -> FHVectors:
    """f/h-vectors by exact face counts."""
    ft = tuple(map(len, _face_levels(_masks(c))))
    return FHVectors(dim=c.dim(), f=ft, h=h_from_f(ft))


def family_f_vector(n: int, d: int) -> FHVectors:
    """Closed-form f-vector of Ind(C_n(1..d)): f_{k-1} = n/(n-dk) * C(n-dk, k)."""
    if not (n >= 2 * d >= 2):
        raise ValueError(f"need n >= 2d >= 2, got n={n}, d={d}")
    dim = n // (d + 1) - 1
    f = []
    for k in range(dim + 2):
        num = n * math.comb(n - d * k, k)
        den = n - d * k
        if num % den != 0:
            raise ValueError(f"non-integral face count at n={n}, d={d}, k={k}")
        f.append(num // den)
    ft = tuple(f)
    return FHVectors(dim=dim, f=ft, h=h_from_f(ft))


def link(c: Complex, face: Iterable[int]) -> Complex:
    """The link of ``face``: all G disjoint from it with G ∪ face a face."""
    fs = frozenset(face)
    if not c.has_face(fs):
        raise ValueError(f"{sorted(fs)} is not a face of the complex")
    # f - F ⊂ g - F for facets f, g through F would make f ⊂ g: no reduction
    return Complex(c.vertex_count, frozenset(f - fs for f in c.facets if fs <= f))


def _maximal_independent_sets(g: Graph, mask: Optional[int] = None) -> list[int]:
    """All maximal independent sets of g[mask] (default: all of g) as
    bitmasks over internal indices.

    Bron-Kerbosch with pivoting on the complement graph, started from
    P = mask, so no subgraph is built.  The frames wait on an explicit
    stack, so no vertex count meets the recursion limit.
    """
    n = g.vertex_count
    full = (1 << n) - 1
    comp = [(full ^ (1 << i) ^ g.adj[i]) for i in range(n)]
    out: list[int] = []
    stack = [(0, full if mask is None else mask, 0)]  # (R, P, X) of each frame not yet expanded
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        px = p | x
        # pivot: vertex of p|x with most complement-neighbours in p
        best, best_cnt = -1, -1
        m = px
        while m:
            low = m & -m
            u = low.bit_length() - 1
            cnt = (comp[u] & p).bit_count()
            if cnt > best_cnt:
                best, best_cnt = u, cnt
            m ^= low
        cand = p & ~comp[best]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            stack.append((r | low, p & comp[v], x & comp[v]))
            p &= ~low
            x |= low
            cand ^= low
    return out


def independence_complex(g: Graph) -> Complex:
    """The complex of independent vertex sets of g, by its facets."""
    n = g.vertex_count
    ambient = max(g.labels, default=0)
    masks = _maximal_independent_sets(g)
    facets = []
    for m in masks:
        facets.append(frozenset(g.labels[i] for i in range(n) if (m >> i) & 1))
    return Complex(ambient, frozenset(facets))


def independence_polynomial(g: Graph) -> tuple[int, ...]:
    """The number of independent sets of g of each size from 0 up: the
    f-vector of Ind(g), counted without listing a face.

    I(W), the polynomial of g[W], is the product of those of the connected
    components of g[W], and I(W) = I(W - v) + t I(W - N[v]) at the lowest
    vertex v of a connected W.  Each vertex mask is answered once, on an
    explicit stack, so no vertex count meets the recursion limit.  A
    polynomial is kept as its value at t = 2^(n+1): every coefficient of a
    sum or a product taken here counts vertex sets, so it is at most 2^n,
    and the base-2^(n+1) digits of the value are the coefficients.
    """
    n = g.vertex_count
    shift = n + 1
    memo = {0: 1}
    stack = [(1 << n) - 1]
    while stack:
        w = stack.pop()
        if w in memo:
            continue
        comps = _component_masks(g, w)
        v = w & -w
        parts = comps if len(comps) > 1 else [w ^ v, w & ~v & ~g.adj[v.bit_length() - 1]]
        todo = [p for p in parts if p not in memo]
        if todo:
            stack += [w, *todo]
            continue
        memo[w] = math.prod(memo[p] for p in parts) if len(comps) > 1 else memo[parts[0]] + (memo[parts[1]] << shift)
    value, out = memo[(1 << n) - 1], []
    while value:
        out.append(value & ((1 << shift) - 1))
        value >>= shift
    return tuple(out)


def alpha(g: Graph) -> int:
    """Independence number: the largest size of an independent set, the
    degree of the independence polynomial (0 with no vertices)."""
    return len(independence_polynomial(g)) - 1


def is_well_covered(g: Graph) -> bool:
    """True iff every maximal independent set has the maximum cardinality.

    No maximal independent set is listed.  Every one of g[W] meets N[u]
    for any vertex u of W, and those through v are v with one of
    g[W - N[v]].  So a connected W is well-covered, with independence
    number a, iff g[W - N[v]] is well-covered with a - 1 for each v in
    N[u], u the lowest vertex of W.  A disconnected W is well-covered iff
    each component is (Plummer 1970), with the sum of theirs.  Each
    well-covered mask keeps its independence number once.  A mask waits
    on an explicit stack for its parts one at a time, so no vertex count
    meets the recursion limit, and the first part that disagrees with
    those before it answers False.  A graph with no vertices is
    well-covered.
    """
    closed = [a | 1 << i for i, a in enumerate(g.adj)]
    memo = {0: 0}  # vertex mask of a well-covered g[W] -> its independence number
    frames: list[list] = []  # [W, its parts, the part awaited, split into components?, their sum or common number so far]
    w = (1 << g.vertex_count) - 1
    while True:
        if w not in memo:
            comps = _component_masks(g, w)
            if len(comps) > 1:
                frames.append([w, comps, 0, True, 0])
            else:
                around, parts = closed[(w & -w).bit_length() - 1] & w, []
                while around:
                    v = around & -around
                    around ^= v
                    parts.append(w & ~closed[v.bit_length() - 1])
                frames.append([w, parts, 0, False, -1])
            w = frames[-1][1][0]
            continue
        a = memo[w]
        while frames:
            frame = frames[-1]
            top, parts, k, split, b = frame
            if split:
                a += b
            elif b >= 0 and a != b:
                return False
            if k + 1 < len(parts):
                frame[2], frame[4] = k + 1, a
                w = parts[k + 1]
                break
            memo[top] = a = a if split else a + 1
            frames.pop()
        else:
            return True
