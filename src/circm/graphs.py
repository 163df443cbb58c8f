"""Circulant graphs and graph constructions derived from them.

Vertices carry 1-based external labels.  Adjacency is stored as one
integer bitmask per internal index, which keeps induced subgraphs,
component splits and independence-set enumeration cheap.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Optional

from .errors import Frozen, GuardError

ISO_VERTEX_LIMIT = 12


class CirculantSpec(Frozen):
    """A circulant graph description: vertex count n and connection set s."""

    __slots__ = ("n", "s")

    def __init__(self, n: int, s: tuple[int, ...]) -> None:
        if type(n) is not int or n < 1:  # 5.0 and True too: n reaches the label and range()
            raise ValueError(f"vertex count must be a positive int, got {n!r}")
        s = tuple(s)
        for x in s:
            if type(x) is not int:
                raise ValueError(f"connection set entry {x!r} is not an int")
        if list(s) != sorted(set(s)):
            raise ValueError(f"connection set must be strictly increasing without duplicates: {s}")
        for x in s:
            if not 1 <= x <= n // 2:
                raise ValueError(f"connection set entry {x} outside [1, {n // 2}] for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    def __str__(self) -> str:
        return f"C{self.n}({','.join(map(str, self.s))})"


@lru_cache(maxsize=4)
def _transpose_steps(w: int) -> tuple[tuple[int, int], ...]:
    """The log2(w) masked swaps that transpose a w x w bit matrix packed
    row by row into one int, bit (i, j) at i * w + j, w a power of two
    >= 8: for each s = w/2, ..., 1, the shift s * (w - 1) from bit (i, j)
    to (i + s, j - s), and the mask of the bits (i, j) with bit s clear
    in i and set in j."""
    rb = w // 8
    ones = (1 << w) - 1
    steps = []
    s = w // 2
    while s:
        row = ones // ((1 << 2 * s) - 1) * (((1 << s) - 1) << s)  # the columns j with bit s set
        rows = (row.to_bytes(rb, "little") * s + bytes(rb * s)) * (w // (2 * s))
        steps.append((s * (w - 1), int.from_bytes(rows, "little")))
        s //= 2
    return tuple(steps)


def _is_symmetric(adj: tuple[int, ...], arcs: int) -> bool:
    """Whether j is in adj[i] exactly when i is in adj[j], for masks
    within range(len(adj)) that hold ``arcs`` bits in all.

    A walk over the arcs costs about 250 ns an arc; the transpose of the
    packed w x w matrix, w the next power of two >= max(n, 8), about
    120 ns for each of its w^2 / 64 words and 3 us more (CPython 3.11 on
    a 2-vCPU x86-64 host).  So an adjacency of fewer than w^2 / 128 + 12
    arcs is walked, arc by arc, and a denser one is packed, transposed
    and compared: no graph pays for w^2 bits unless it holds about one
    in 128 of them already.
    """
    w = 1 << max(len(adj) - 1, 7).bit_length()
    if arcs < (w * w >> 7) + 12:
        for i, mask in enumerate(adj):
            bit = 1 << i
            while mask:
                low = mask & -mask
                if not adj[low.bit_length() - 1] & bit:
                    return False
                mask ^= low
        return True
    rb = w // 8
    packed = x = int.from_bytes(b"".join(m.to_bytes(rb, "little") for m in adj), "little")
    # the masks take log2(w) w^2 / 8 bytes: above w = 256 they are built per call, not kept
    for shift, mask in _transpose_steps(w) if w <= 256 else _transpose_steps.__wrapped__(w):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x == packed


class Graph(Frozen):
    """A finite simple graph with labelled vertices.

    ``adj[i]`` is the neighbour bitmask of internal index i; ``labels[i]``
    is the external (1-based) name of that vertex.
    """

    __slots__ = ("adj", "labels", "origin")

    def __init__(self, adj: tuple[int, ...], labels: tuple[int, ...], origin: Optional[CirculantSpec] = None) -> None:
        n = len(adj)
        if len(labels) != n:
            raise ValueError("labels/adjacency length mismatch")
        if len(set(labels)) != n:
            raise ValueError("duplicate vertex labels")
        arcs = 0  # each edge from both ends
        for i, mask in enumerate(adj):
            if mask >> n:
                raise ValueError("adjacency mask out of range")
            if mask >> i & 1:
                raise ValueError("adjacency has a loop")
            arcs += mask.bit_count()
        if not _is_symmetric(adj, arcs):
            raise ValueError("adjacency is not symmetric")
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "origin", origin)

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    def index_of(self, label: int) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"vertex label {label} not in graph") from None

    def has_edge(self, a: int, b: int) -> bool:
        return bool((self.adj[self.index_of(a)] >> self.index_of(b)) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as 1-based label pairs (a, b) with a < b, sorted."""
        out = []
        for i in range(self.vertex_count):
            mask = self.adj[i]
            for j in range(i + 1, self.vertex_count):
                if (mask >> j) & 1:
                    a, b = self.labels[i], self.labels[j]
                    out.append((min(a, b), max(a, b)))
        out.sort()
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def degree_sequence(self) -> list[int]:
        return sorted(m.bit_count() for m in self.adj)


def make_circulant(spec: CirculantSpec) -> Graph:
    """Build the circulant graph for ``spec``.

    Vertices i and j are adjacent iff min(|i-j|, n-|i-j|) is in the
    connection set: vertex 0's neighbours are the bits s and n - s, and
    vertex i's are those rotated by i.
    """
    n = spec.n
    full = (1 << n) - 1
    row = 0
    for s in spec.s:
        row |= 1 << s | 1 << (n - s)
    adj = tuple(((row << i) | (row >> (n - i))) & full for i in range(n))
    return Graph(adj=adj, labels=tuple(range(1, n + 1)), origin=spec)


def circulant(n: int, s: Iterable[int]) -> Graph:
    return make_circulant(CirculantSpec(n, tuple(s)))


def interval_circulant(n: int, d: int) -> Graph:
    """The graph C_n(1, 2, ..., d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return circulant(n, range(1, d + 1))


def induced_subgraph(g: Graph, w: Iterable[int]) -> Graph:
    """The subgraph induced on the label set ``w``, labels preserved."""
    wl = sorted(set(w))
    idx = [g.index_of(v) for v in wl]
    keep = 0
    for i in idx:
        keep |= 1 << i
    pos = {i: p for p, i in enumerate(idx)}
    adj = []
    for i in idx:
        mask = g.adj[i] & keep
        new_mask = 0
        j = mask
        while j:
            low = j & -j
            new_mask |= 1 << pos[low.bit_length() - 1]
            j ^= low
        adj.append(new_mask)
    return Graph(adj=tuple(adj), labels=tuple(wl))


def _component_masks(g: Graph, mask: int) -> list[int]:
    """Vertex bitmasks of the connected components of g[mask], in order
    of their lowest internal index."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= g.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


def connected_components(g: Graph) -> list[Graph]:
    """Maximal connected pieces of g, ordered by smallest label."""
    n = g.vertex_count
    masks = _component_masks(g, (1 << n) - 1)
    comps = [[g.labels[i] for i in range(n) if (comp >> i) & 1] for comp in masks]
    comps.sort(key=min)
    return [induced_subgraph(g, ls) for ls in comps]


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographical product G[H].

    Vertex (u, v) (1-based positions in g and h) is serialised as label
    (u-1)*|V_H| + v.  (u,v) ~ (x,y) iff u~x in g, or u=x and v~y in h.
    """
    ng, nh = g.vertex_count, h.vertex_count
    if ng == 0 or nh == 0:
        raise ValueError("both factors must be nonempty")
    n = ng * nh
    block = (1 << nh) - 1
    adj = []
    for u in range(ng):
        # (u, v) is adjacent to all of block x for x in N_G(u), and to N_H(v) in block u
        around = 0
        for x in range(ng):
            if (g.adj[u] >> x) & 1:
                around |= block << (x * nh)
        adj.extend(around | h.adj[v] << (u * nh) for v in range(nh))
    return Graph(adj=tuple(adj), labels=tuple(range(1, n + 1)))


class CubicDecomposition(Frozen):
    """How a cubic circulant C_{2n}(a, n) splits into connected copies."""

    __slots__ = ("t", "copies", "component_spec")

    def __init__(self, t: int, copies: int, component_spec: CirculantSpec) -> None:
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "component_spec", component_spec)


def cubic_decompose(two_n: int, a: int) -> CubicDecomposition:
    """Decompose C_{2n}(a, n) into isomorphic connected components.

    With t = gcd(a, 2n): if 2n/t is even the graph is t copies of
    C_{2n/t}(1, n/t); if odd, t/2 copies of C_{4n/t}(2, 2n/t).
    """
    if two_n % 2 != 0 or two_n < 4:
        raise ValueError(f"2n must be even and >= 4, got {two_n}")
    n = two_n // 2
    if not 1 <= a < n:
        raise ValueError(f"a must satisfy 1 <= a < {n}, got {a}")
    t = math.gcd(a, two_n)
    q = two_n // t
    if q % 2 == 0:
        comp = CirculantSpec(q, (1, n // t) if n // t != 1 else (1,))
        return CubicDecomposition(t=t, copies=t, component_spec=comp)
    comp = CirculantSpec(2 * q, (2, q))
    return CubicDecomposition(t=t, copies=t // 2, component_spec=comp)


def is_isomorphic_small(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism test for graphs with at most 12 vertices."""
    if g.vertex_count > ISO_VERTEX_LIMIT or h.vertex_count > ISO_VERTEX_LIMIT:
        raise GuardError(f"isomorphism helper limited to {ISO_VERTEX_LIMIT} vertices")
    n = g.vertex_count
    if n != h.vertex_count or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    gdeg = [m.bit_count() for m in g.adj]
    hdeg = [m.bit_count() for m in h.adj]
    # Map high-degree vertices first: fewer candidates per step.
    order = sorted(range(n), key=lambda i: -gdeg[i])
    mapping = [-1] * n
    used = 0

    def extend(k: int) -> bool:
        nonlocal used
        if k == n:
            return True
        u = order[k]
        for v in range(n):
            if (used >> v) & 1 or hdeg[v] != gdeg[u]:
                continue
            ok = True
            for uu in order[:k]:
                if bool((g.adj[u] >> uu) & 1) != bool((h.adj[v] >> mapping[uu]) & 1):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used |= 1 << v
                if extend(k + 1):
                    return True
                used &= ~(1 << v)
                mapping[u] = -1
        return False

    return extend(0)
