"""Simplicial complexes stored by their facet families.

A complex is a set of facets (inclusion-maximal faces) over an ambient
vertex range 1..vertex_count.  The complex whose only face is the empty
set is represented by the single facet frozenset() and has dimension -1.
Vertices of links/deletions/restrictions keep their original labels.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable, Iterator, Optional

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
        if vertex_count < 0:
            raise ValueError(f"vertex count must be nonnegative, got {vertex_count}")
        if not facets:
            raise ValueError("facet family must be nonempty; use the single facet {} for the empty complex")
        for f in facets:
            for v in f:
                if not 1 <= v <= vertex_count:
                    raise ValueError(f"vertex {v} outside ambient range 1..{vertex_count}")
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


def _face_levels(c: Complex) -> list[set[int]]:
    """The faces of c by size, from the facets down: ``levels[k]`` holds
    each face of k vertices as a bitmask with vertex v of n at bit n - v.
    Among faces of one size, descending masks are ascending vertex tuples
    (``_face_tuple``); a face one size down is a mask with a bit cleared."""
    n = c.vertex_count
    levels: list[set[int]] = [set() for _ in range(c.dim() + 2)]
    for f in c.facets:
        levels[len(f)].add(sum(1 << (n - v) for v in f))
    for k in range(len(levels) - 1, 1, -1):
        lower = levels[k - 1]
        for m in levels[k]:
            rest = m
            while rest:
                low = rest & -rest
                lower.add(m ^ low)
                rest ^= low
    levels[0] = {0}
    return levels


def _face_tuple(mask: int, n: int) -> tuple[int, ...]:
    """The sorted vertex tuple of a face mask of ``_face_levels`` (vertex v
    of n at bit n - v): the highest bit is the smallest vertex."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(n - top)
        mask ^= 1 << top
    return tuple(out)


@lru_cache(maxsize=256)
def faces(c: Complex) -> frozenset[frozenset[int]]:
    """Every face of c, the empty face included."""
    n = c.vertex_count
    return frozenset(frozenset(_face_tuple(m, n)) for level in _face_levels(c) for m in level)


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
    ft = tuple(map(len, _face_levels(c)))
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
    new = _maximal(f - fs for f in c.facets if fs <= f)
    return Complex(c.vertex_count, new)


def deletion(c: Complex, v: int) -> Complex:
    """All faces avoiding the vertex v."""
    if not 1 <= v <= c.vertex_count:
        raise ValueError(f"vertex {v} outside ambient range")
    new = _maximal(f - {v} for f in c.facets)
    return Complex(c.vertex_count, new)


def restrict(c: Complex, w: Iterable[int]) -> Complex:
    """All faces contained in the vertex set w."""
    ws = frozenset(w)
    for v in ws:
        if not 1 <= v <= c.vertex_count:
            raise ValueError(f"vertex {v} outside ambient range")
    new = _maximal(f & ws for f in c.facets)
    return Complex(c.vertex_count, new)


def _maximal_independent_sets(g: Graph, mask: Optional[int] = None) -> list[int]:
    """All maximal independent sets of g[mask] (default: all of g) as
    bitmasks over internal indices.

    Bron-Kerbosch with pivoting on the complement graph, started from
    P = mask, so no subgraph is built.
    """
    n = g.vertex_count
    full = (1 << n) - 1
    comp = [(full ^ (1 << i) ^ g.adj[i]) for i in range(n)]
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
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
            bk(r | low, p & comp[v], x & comp[v])
            p &= ~low
            x |= low
            cand ^= low

    bk(0, full if mask is None else mask, 0)
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


def _component_set_sizes(g: Graph) -> Iterator[set[int]]:
    """For each connected component of g, in turn, the sizes of its
    maximal independent sets.

    A maximal independent set of g is the union of one maximal independent
    set of each component, so no set of g itself is enumerated.
    """
    for comp in _component_masks(g, (1 << g.vertex_count) - 1):
        yield {m.bit_count() for m in _maximal_independent_sets(g, comp)}


def alpha(g: Graph) -> int:
    """Independence number: the sum over the connected components of g of
    the largest size of a maximal independent set (0 with no vertices)."""
    return sum(max(sizes) for sizes in _component_set_sizes(g))


def is_well_covered(g: Graph) -> bool:
    """True iff every maximal independent set has the maximum cardinality.

    Decided one connected component at a time: g is well-covered iff each
    component is (Plummer 1970), and the first component that is not
    answers False without enumerating the rest.  A graph with no vertices
    is well-covered.
    """
    return all(len(sizes) == 1 for sizes in _component_set_sizes(g))
