"""Shared independent oracles for the test suite.

Everything here recomputes results by the most naive method available
(subset enumeration, dense Fraction or residue elimination) so that the
optimized implementations in ``circm`` are checked against code that
shares none of their machinery.
"""

from fractions import Fraction
from itertools import combinations

from circm import Graph


def circular_distance(n: int, i: int, j: int) -> int:
    d = abs(i - j) % n
    return min(d, n - d)


def graph_from_edges(n: int, edges) -> Graph:
    """The graph on labels 1..n with an edge {i+1, j+1} for each (i, j)."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(adj=tuple(adj), labels=tuple(range(1, n + 1)))


def brute_independent_sets(g: Graph) -> set[frozenset[int]]:
    """Every independent set of g (by label), by checking all subsets."""
    labels = list(g.labels)
    out: set[frozenset[int]] = {frozenset()}
    for r in range(1, len(labels) + 1):
        for sub in combinations(labels, r):
            if all(not g.has_edge(a, b) for a, b in combinations(sub, 2)):
                out.add(frozenset(sub))
    return out


def brute_maximal_independent_sets(g: Graph) -> set[frozenset[int]]:
    ind = brute_independent_sets(g)
    return {s for s in ind if not any(s < t for t in ind)}


def brute_vertex_decomposable(facets) -> bool:
    """Vertex decomposability of the complex with these facets, straight
    from the definition (Provan-Billera), with no memo and no relabeling.

    A pure complex is vertex decomposable when it is a simplex ({∅}
    included) or has a vertex x whose link {F - x : x in F} and deletion
    (the maximal sets F - x) are both vertex decomposable.
    """
    fs = {frozenset(f) for f in facets}
    if len({len(f) for f in fs}) != 1:
        return False
    if len(fs) == 1:
        return True
    for x in sorted(frozenset().union(*fs)):
        link = {f - {x} for f in fs if x in f}
        dele = {f - {x} for f in fs}
        dele = {f for f in dele if not any(f < g for g in dele)}
        if brute_vertex_decomposable(link) and brute_vertex_decomposable(dele):
            return True
    return False


def dense_rank(rows: list[list[int]]) -> int:
    """Rank over Q by textbook forward elimination on Fractions.

    Only the rows below each pivot are cleared: the rank is the number
    of pivots of the resulting row echelon form.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def dense_rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by textbook Gaussian elimination on residues."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def downward_closure(facets: set[frozenset[int]]) -> set[frozenset[int]]:
    out: set[frozenset[int]] = set()
    for f in facets:
        fl = sorted(f)
        for r in range(len(fl) + 1):
            out.update(frozenset(s) for s in combinations(fl, r))
    return out


def brute_reduced_betti(faces, field) -> dict[int, int]:
    """Every reduced Betti number of the complex that ``faces`` generate.

    The complex is the downward closure of ``faces``; each boundary
    matrix is written out densely and ranked by textbook elimination
    over Q or GF(p), as ``field`` asks.  Keys run from -1 to the
    dimension.
    """
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in downward_closure(set(faces)):
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    top = max(by_dim)
    rank = {}
    for i in range(top + 1):
        index = {t: k for k, t in enumerate(sorted(by_dim[i - 1]))}
        rows = []
        for t in by_dim[i]:
            row = [0] * len(index)
            for pos in range(len(t)):
                row[index[t[:pos] + t[pos + 1 :]]] = -1 if pos % 2 else 1
            rows.append(row)
        rank[i] = dense_rank(rows) if field.kind == "rational" else dense_rank_mod(rows, field.p)
    return {i: len(by_dim[i]) - rank.get(i, 0) - rank.get(i + 1, 0) for i in range(-1, top + 1)}


def brute_boundary_composition_is_zero(boundaries: dict[int, list[dict[int, int]]]) -> bool:
    """Whether ∂_i ∘ ∂_{i+1} = 0 for every stored pair of boundary matrices.

    Each ∂_i is written out densely, rows from 0 to the largest row index
    any column of it uses, and multiplied by every column of ∂_{i+1}
    entry by entry, over the integers.
    """
    for i, upper in boundaries.items():
        lower = boundaries.get(i - 1)
        if lower is None:
            continue
        height = 1 + max((r for col in lower for r in col), default=-1)
        dense = [[col.get(r, 0) for col in lower] for r in range(height)]
        for col in upper:
            vec = [col.get(k, 0) for k in range(len(lower))]
            if any(sum(a * b for a, b in zip(row, vec)) for row in dense):
                return False
    return True
