"""Deciders for Cohen-Macaulay, Buchsbaum, vertex-decomposable and
shellable complexes, plus projective dimension via induced-subcomplex
homology, assembled into a cross-checked report.

Every homology question the deciders ask is about a link or a
restriction.  On a flag complex Ind(G) these are Ind(G - N[F]) and
Ind(G[W]), so a flag complex is answered by one ``InducedHomology``
oracle over vertex masks; any other complex takes the textbook route,
``reduced_betti`` of ``link(c, F)`` or ``restrict(c, W)``.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import reduce
from itertools import combinations, islice
from operator import or_
from typing import Iterable, Iterator, Optional

from .complexes import Complex, FHVectors, _face_levels, _face_tuple, h_from_f, link, restrict
from .errors import Frozen, GuardError, InconsistencyError
from .fields import FieldChoice
from .graphs import Graph, induced_subgraph
from .homology import InducedHomology, reduced_betti

DEFAULT_SHELL_BUDGET = 10_000_000
PDIM_VERTEX_GUARD = 16

Witness = tuple[tuple[int, ...], int]

# The oracle of the complex full_report is deciding, shared by every
# decider the report calls on that complex; unset outside a report.
_REPORT_ORACLE: ContextVar[Optional[InducedHomology]] = ContextVar("_REPORT_ORACLE", default=None)
# That complex with the face levels its f-vector was counted from, while
# the report's link scans run; unset otherwise.
_REPORT_LEVELS: ContextVar[Optional[tuple[Complex, list[set[int]]]]] = ContextVar("_REPORT_LEVELS", default=None)


def _mask(face: Iterable[int]) -> int:
    return sum(1 << (v - 1) for v in face)


def _oracle(c: Complex, field: FieldChoice) -> Optional[InducedHomology]:
    """The homology oracle of c over the field when c is flag, else None.

    G is the complement of the 1-skeleton of c on the vertices 1..n; c is
    flag when it covers every vertex and equals Ind(G), the oracle's own
    ``whole``, so one enumeration of G's maximal independent sets serves
    both the test and the oracle.
    """
    shared = _REPORT_ORACLE.get()
    if shared is not None and shared.whole is c and shared.field == field:
        return shared
    n = c.vertex_count
    skeleton = [0] * n
    for f in c.facets:
        m = _mask(f)
        for v in f:
            skeleton[v - 1] |= m
    if not all(skeleton):
        return None
    full = (1 << n) - 1
    oracle = InducedHomology(Graph(adj=tuple(full & ~s for s in skeleton), labels=tuple(range(1, n + 1))), field)
    return oracle if oracle.whole == c else None


def _link_violation(c: Complex, face: tuple[int, ...], field: FieldChoice, oracle: Optional[InducedHomology], top: Optional[int]) -> Optional[int]:
    """Smallest i < dim link with nonvanishing H~_i of the link, if any.

    ``top`` is dim c when c is pure, else None: each link of a pure
    complex is pure, of dimension dim c - |F|.  Otherwise the facets of
    the link are f - F for the facets f of c through F, so its dimension
    is that of the largest such f, less |F|.
    """
    if oracle is not None:
        closed = _mask(face)
        for v in face:
            closed |= oracle.graph.adj[v - 1]
        nonzero = oracle.betti(oracle.full & ~closed)  # lk_F Ind(G) = Ind(G - N[F])
    else:
        nonzero = [i for i, b in reduced_betti(link(c, face), field).by_dim if b]
    low = min(nonzero, default=None)
    if low is None:
        return None
    if top is None:  # read from the facets only when some H~_i is nonzero
        top = max(len(f) for f in c.facets if f.issuperset(face)) - 1
    return low if low < top - len(face) else None


def _sorted_faces(c: Complex) -> Iterator[tuple[int, ...]]:
    """Every face of c as a sorted vertex tuple, by size, then
    lexicographically: the empty face first, before any face is
    enumerated, then each size's faces in descending mask order.  In a
    report the faces are those its f-vector counted."""
    yield ()
    shared = _REPORT_LEVELS.get()
    levels = shared[1] if shared is not None and shared[0] is c else _face_levels(c)
    n = c.vertex_count
    for level in levels[1:]:
        for m in sorted(level, reverse=True):
            yield _face_tuple(m, n)


def _violations(c: Complex, candidates: Iterable[tuple[int, ...]], field: FieldChoice) -> Iterator[Witness]:
    """(face, i) for each candidate face, in order, that fails Reisner's test."""
    oracle = _oracle(c, field)
    top = c.dim() if c.is_pure() else None
    for face in candidates:
        i = _link_violation(c, face, field, oracle, top)
        if i is not None:
            yield (face, i)


def reisner_violation(c: Complex, field: FieldChoice) -> Optional[Witness]:
    """First face whose link has homology below its dimension.

    Returns (face, i) for the violation, or None when the complex is
    Cohen-Macaulay over the field.  The empty face is checked too, so a
    disconnected complex fails here already.
    """
    return next(_violations(c, _sorted_faces(c), field), None)


def is_cohen_macaulay(c: Complex, field: FieldChoice) -> bool:
    return reisner_violation(c, field) is None


def buchsbaum_violation(c: Complex, field: FieldChoice) -> Optional[Witness]:
    """Like the Cohen-Macaulay test but skipping the empty face.

    Defined for pure complexes only; rejects impure input.
    """
    if not c.is_pure():
        raise ValueError("Buchsbaum is defined for pure complexes only")
    # the empty face sorts first
    return next(_violations(c, islice(_sorted_faces(c), 1, None), field), None)


def is_buchsbaum(c: Complex, field: FieldChoice) -> bool:
    return buchsbaum_violation(c, field) is None


# --- vertex decomposability, on facets as vertex bitmasks (``_mask``) ---------

def _canonical_facets(facets: frozenset[int]) -> frozenset[int]:
    """Relabel vertices by sorted occurrence, a cheap canonical form: the
    union's bits are packed down to 0..k-1, one run of them at a time."""
    rest, pos, packed = reduce(or_, facets), 0, [0] * len(facets)
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)
        packed = [p | (f & run) >> (low.bit_length() - 1 - pos) for p, f in zip(packed, facets)]
        pos += run.bit_count()
        rest ^= run
    return frozenset(packed)


def _facets_connected(facets: frozenset[int]) -> bool:
    """Whether the facets, vertex bitmasks, make a connected complex: one
    facet's vertices absorb every facet that meets them, until no facet
    is added."""
    reach, *rest = facets
    while rest:
        left = []
        for f in rest:
            if f & reach:
                reach |= f
            else:
                left.append(f)
        if len(left) == len(rest):
            return False
        rest = left
    return True


def _vd_recursive(facets: frozenset[int], memo: dict[frozenset[int], bool]) -> bool:
    """Vertex decomposability of pure facets, memoized on their canonical
    form.  A vertex decomposable complex is shellable (Provan-Billera), so
    one of dimension >= 1 is connected: a disconnected one is answered
    False before any shedding vertex is sought."""
    key = _canonical_facets(facets)
    found = memo.get(key)
    if found is None:
        points = next(iter(key)).bit_count() < 2  # dimension 0, connected or not
        memo[key] = found = len(key) == 1 or ((points or _facets_connected(key)) and _shedding_vertex(key, memo) is not None)
    return found


def _shedding_vertex(facets: frozenset[int], memo: dict[frozenset[int], bool]) -> Optional[tuple]:
    """(x, lk_x, del_x) for the first vertex x, a bit, whose link and
    deletion are vertex decomposable, or None.  Of pure facets, the
    deletion is those avoiding x (the link if none does); it is impure,
    and x is skipped, when a link facet lies in none of them."""
    rest = reduce(or_, facets)
    while rest:
        x = rest & -rest
        rest ^= x
        link_f = frozenset(f ^ x for f in facets if f & x)
        del_f = frozenset(f for f in facets if not f & x) or link_f
        if del_f is not link_f and any(all(g & ~h for h in del_f) for g in link_f):
            continue
        if _vd_recursive(link_f, memo) and _vd_recursive(del_f, memo):
            return x, link_f, del_f
    return None


def is_vertex_decomposable(c: Complex) -> bool:
    """Pure-complex vertex decomposability: a simplex is vertex
    decomposable, and so is a complex with a vertex whose link and
    deletion are; impure complexes are not.  Within one call, results are
    memoized on a canonical relabeling of the facet family."""
    return c.is_pure() and _vd_recursive(frozenset(map(_mask, c.facets)), {})


def _shedding_order(c: Complex) -> Optional[list[frozenset[int]]]:
    """The shelling order a vertex decomposition of c implies, or None.

    For a shedding vertex x: the order of del_x, then x joined to the
    order of lk_x (Provan-Billera); only the latter when x lies in every
    facet, where del_x is lk_x.  Every branch taken is in the memo.
    """
    memo: dict[frozenset[int], bool] = {}
    facets = frozenset(map(_mask, c.facets))
    if not c.is_pure() or not _vd_recursive(facets, memo):
        return None
    return [frozenset(v + 1 for v in range(m.bit_length()) if m >> v & 1) for m in _order_by_shedding(facets, memo)]


def _order_by_shedding(facets: frozenset[int], memo: dict[frozenset[int], bool]) -> list[int]:
    # Not a closure: one that calls itself is a reference cycle, which
    # would hold the memo until the next full garbage collection.
    found = _shedding_vertex(facets, memo) if len(facets) > 1 else None
    if found is None:
        return list(facets)
    x, link_f, del_f = found
    cone = [f | x for f in _order_by_shedding(link_f, memo)]
    return cone if del_f is link_f else _order_by_shedding(del_f, memo) + cone


# --- shellability ------------------------------------------------------------


class ShellabilityResult(Frozen):
    """Tri-state answer: True/False, or None when the budget ran out."""

    __slots__ = ("status", "order", "nodes")

    def __init__(self, status: Optional[bool], order: Optional[tuple[frozenset[int], ...]] = None, nodes: int = 0) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nodes", nodes)


def _attaches(f: int, earlier: list[int]) -> bool:
    """The shelling condition on facet f after the facets ``earlier``, all
    vertex bitmasks: every gap f & ~g holds a vertex x with f & ~h == x
    for some earlier h."""
    gaps = [f & ~g for g in earlier]
    singles = reduce(or_, (d for d in gaps if d & (d - 1) == 0), 0)
    return all(d & singles for d in gaps)


def check_shelling_order(order: list[frozenset[int]]) -> bool:
    """Direct test of the shelling condition on a given facet order.

    For all j < i there must be an x in F_i \\ F_j and a k < i with
    F_i \\ F_k = {x}.
    """
    masks = [_mask(f) for f in order]
    return all(_attaches(f, masks[:i]) for i, f in enumerate(masks))


def is_shellable(c: Complex, node_budget: int = DEFAULT_SHELL_BUDGET, field: Optional[FieldChoice] = None) -> ShellabilityResult:
    """Decide shellability of a pure complex; impure input is not shellable.

    Reduced homology below the top dimension (in dimension 1:
    disconnectedness) rules shellability out.  Otherwise a backtracking
    search places the lowest-index attachable facet next, memoizing dead
    prefix sets, and returns None after ``node_budget`` nodes, one per
    prefix it extends.  Positive answers are re-verified against the raw
    shelling condition.
    """
    if not c.is_pure():
        return ShellabilityResult(False)
    fld = field if field is not None else FieldChoice.rational()
    # shellable complexes have homology only in the top dimension:
    # Reisner's test on the empty face
    if next(_violations(c, [()], fld), None) is not None:
        return ShellabilityResult(False)
    return _shelling_search(sorted(c.facets, key=sorted), node_budget)


def _verified(order: list[frozenset[int]], nodes: int = 0) -> ShellabilityResult:
    """A positive answer, once its order passes the raw shelling condition."""
    if not check_shelling_order(order):
        raise InconsistencyError("a constructed facet order fails the shelling condition")
    return ShellabilityResult(True, tuple(order), nodes)


def _shelling_search(facets: list[frozenset[int]], node_budget: int) -> ShellabilityResult:
    """Depth-first over prefixes of facet indices, on an explicit stack so
    that no facet count meets the recursion limit.  A prefix is one node:
    it tries, lowest index first, each facet that attaches to it, and is
    remembered as dead by the bits of its indices once none leads on."""
    masks = [_mask(f) for f in facets]
    t = len(masks)
    nodes = 0
    dead: set[int] = set()  # prefixes that extend to no shelling, by their bits of placed indices
    placed: list[int] = []
    frames: list[tuple[int, list[int]]] = []  # (bits, facet masks) of each prefix being extended
    key = 0
    while True:
        if len(placed) == t:
            return _verified([facets[i] for i in placed], nodes)
        if key in dead:
            start = placed.pop() + 1  # its parent tries the next facet
        else:
            nodes += 1
            if nodes > node_budget:
                return ShellabilityResult(None, None, nodes)
            frames.append((key, [masks[p] for p in placed]))
            start = 0
        while True:
            key, earlier = frames[-1]
            fi = next((j for j in range(start, t) if not key >> j & 1 and _attaches(masks[j], earlier)), None)
            if fi is not None:
                break
            dead.add(key)
            frames.pop()
            if not frames:
                return ShellabilityResult(False, None, nodes)
            start = placed.pop() + 1
        placed.append(fi)
        key |= 1 << fi


# --- projective dimension via induced-subcomplex homology --------------------


def projective_dimension(
    c: Complex,
    field: FieldChoice,
    max_vertices: Optional[int] = PDIM_VERTEX_GUARD,
) -> int:
    """Projective dimension of the face ring, from induced subcomplexes.

    By Hochster's formula, for every vertex subset W a nonzero H~_j of
    the restriction to W contributes |W| - j - 1, and the projective
    dimension is the maximum contribution.  Subsets are scanned
    largest-first so that subsets too small to beat the current maximum
    are skipped.  On a flag complex Ind(G) the restriction to W is
    Ind(G[W]), answered by the homology oracle; otherwise it is
    ``restrict(c, W)`` and its homology is computed, cones included.
    More than ``max_vertices`` vertices raise ``GuardError``; None means
    no limit.
    """
    n = c.vertex_count
    if max_vertices is not None and n > max_vertices:
        raise GuardError(f"projective_dimension guarded at {max_vertices} vertices (n={n}); pass max_vertices=None to lift it")
    oracle = _oracle(c, field)
    best = 0  # W = empty set: H~_{-1}({emptyset}) = 1 contributes 0
    for size in range(n, 0, -1):
        if size - 1 <= best:
            break
        for w in combinations(range(1, n + 1), size):
            if oracle is not None:
                nonzero = oracle.betti(_mask(w))
            else:
                nonzero = [j for j, b in reduced_betti(restrict(c, w), field).by_dim if b]
            for j in nonzero:
                best = max(best, size - j - 1)
    return best


# --- assembled report ---------------------------------------------------------


class PropertyReport:
    """Every answer ``full_report`` gives for one graph."""

    __slots__ = (
        "graph_label", "vertex_count", "field", "alpha", "krull_dim", "dim", "fh", "h_nonnegative", "well_covered", "pure",
        "cm", "cm_witness", "buchsbaum", "buchsbaum_witness", "vertex_decomposable", "shellable", "shelling_order",
        "pdim", "depth", "betti",
    )

    def __init__(
        self,
        graph_label: str,
        vertex_count: int,
        field: FieldChoice,
        alpha: int,
        krull_dim: int,
        dim: int,
        fh: FHVectors,
        h_nonnegative: bool,
        well_covered: bool,
        pure: bool,
        cm: bool,
        cm_witness: Optional[Witness],
        buchsbaum: bool,
        buchsbaum_witness: Optional[Witness],
        vertex_decomposable: bool,
        shellable: Optional[bool],
        shelling_order: Optional[tuple[tuple[int, ...], ...]],
        pdim: Optional[int],
        depth: Optional[int],
        betti: Optional[dict[int, int]] = None,
    ) -> None:
        self.graph_label = graph_label
        self.vertex_count = vertex_count
        self.field = field
        self.alpha = alpha
        self.krull_dim = krull_dim
        self.dim = dim
        self.fh = fh
        self.h_nonnegative = h_nonnegative
        self.well_covered = well_covered
        self.pure = pure
        self.cm = cm
        self.cm_witness = cm_witness
        self.buchsbaum = buchsbaum
        self.buchsbaum_witness = buchsbaum_witness
        self.vertex_decomposable = vertex_decomposable
        self.shellable = shellable
        self.shelling_order = shelling_order
        self.pdim = pdim
        self.depth = depth
        self.betti = betti

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_label,
            "n": self.vertex_count,
            "field": str(self.field),
            "alpha": self.alpha,
            "krull_dim": self.krull_dim,
            "dim": self.dim,
            "f": list(self.fh.f),
            "h": list(self.fh.h),
            "h_nonnegative": self.h_nonnegative,
            "well_covered": self.well_covered,
            "pure": self.pure,
            "cm": self.cm,
            "cm_witness": None if self.cm_witness is None else {"face": list(self.cm_witness[0]), "i": self.cm_witness[1]},
            "buchsbaum": self.buchsbaum,
            "vertex_decomposable": self.vertex_decomposable,
            "shellable": self.shellable,
            "shelling_order": None if self.shelling_order is None else [list(f) for f in self.shelling_order],
            "pdim": self.pdim,
            "depth": self.depth,
            "betti": None if self.betti is None else {str(k): v for k, v in sorted(self.betti.items())},
        }


def _assert_report_invariants(r: PropertyReport) -> None:
    checks = [
        (not r.vertex_decomposable or r.shellable is True, "vertex decomposable must imply shellable"),
        (r.shellable is not True or r.cm, "shellable must imply Cohen-Macaulay"),
        (not r.cm or r.buchsbaum, "Cohen-Macaulay must imply Buchsbaum"),
        (not r.cm or r.well_covered, "Cohen-Macaulay must imply well-covered"),
        (not r.cm or r.h_nonnegative, "Cohen-Macaulay must imply nonnegative h-vector"),
        (not r.buchsbaum or r.pure, "Buchsbaum must imply pure"),
        (r.krull_dim == r.alpha, "Krull dimension must equal the independence number"),
        (r.well_covered == r.pure, "well-covered must coincide with purity of the complex"),
    ]
    if r.pdim is not None:
        checks.append((r.cm == (r.vertex_count - r.pdim == r.krull_dim), "Reisner and projective-dimension routes disagree on Cohen-Macaulayness"))
        checks.append((r.depth == r.vertex_count - r.pdim, "depth must equal n - pdim"))
    for ok, msg in checks:
        if not ok:
            raise InconsistencyError(f"{r.graph_label}: {msg}")


def full_report(
    g: Graph,
    field: Optional[FieldChoice] = None,
    shell_budget: int = DEFAULT_SHELL_BUDGET,
    pdim_guard: Optional[int] = PDIM_VERTEX_GUARD,
    include_betti: bool = False,
) -> PropertyReport:
    """Run every checker on Ind(g) and cross-validate the results.

    Reisner, Buchsbaum, the shelling pre-check, Hochster's pdim and the
    Betti numbers share one homology oracle of Ind(g), which computes the
    homology of each induced subgraph once for all of them.  Checks run
    in implication order: vertex decomposable implies shellable implies
    Cohen-Macaulay over every field, so once Reisner's criterion rejects
    the complex, it is neither and no search runs.  Otherwise a vertex
    decomposition gives the shelling order; only a complex that is not
    vertex decomposable runs the budgeted shelling search.  pdim and
    depth count one variable per vertex of g, whatever its labels; they
    are None when g has more than ``pdim_guard`` vertices (0 skips them,
    None lifts the guard).
    """
    fld = field if field is not None else FieldChoice.rational()
    n = g.vertex_count
    # Numbering the labels 1..n in increasing order keeps every scan order.
    names = sorted(g.labels)
    flag = Graph(adj=induced_subgraph(g, names).adj, labels=tuple(range(1, n + 1)))
    oracle = InducedHomology(flag, fld)
    ind = oracle.whole
    # one face enumeration serves the f-vector and the link scans
    levels = _face_levels(ind)
    f = tuple(map(len, levels))
    token, levels_token = _REPORT_ORACLE.set(oracle), _REPORT_LEVELS.set((ind, levels))
    del levels
    try:
        fh = FHVectors(dim=ind.dim(), f=f, h=h_from_f(f))
        pure = ind.is_pure()
        cm_wit = reisner_violation(ind, fld)
        bb_wit: Optional[Witness] = None
        if pure:
            # Buchsbaum skips only the empty face, so Reisner's witness is
            # Buchsbaum's unless it is the empty face; then Buchsbaum's
            # scan starts where Reisner's stopped.
            bb_wit = buchsbaum_violation(ind, fld) if cm_wit is not None and not cm_wit[0] else cm_wit
        _REPORT_LEVELS.set(None)  # the scans are done: release the faces
        bb = pure and bb_wit is None
        shedding = _shedding_order(ind) if cm_wit is None else None
        if shedding is not None:
            shell = _verified(shedding)
        else:
            shell = is_shellable(ind, shell_budget, fld) if cm_wit is None else ShellabilityResult(False)
        pdim: Optional[int]
        try:
            pdim = projective_dimension(ind, fld, max_vertices=pdim_guard)
        except GuardError:
            pdim = None
        if include_betti:
            nonzero = oracle.betti(oracle.full)
            betti = {i: nonzero.get(i, 0) for i in range(-1, fh.dim + 1)}
        else:
            betti = None
    finally:
        _REPORT_LEVELS.reset(levels_token)
        _REPORT_ORACLE.reset(token)

    def named(face: Iterable[int]) -> tuple[int, ...]:
        return tuple(names[v - 1] for v in sorted(face))

    label = str(g.origin) if g.origin is not None else f"graph(n={g.vertex_count})"
    report = PropertyReport(
        graph_label=label,
        vertex_count=n,
        field=fld,
        alpha=ind.dim() + 1,
        krull_dim=max(k for k, count in enumerate(fh.f) if count),
        dim=fh.dim,
        fh=fh,
        h_nonnegative=all(h >= 0 for h in fh.h),
        well_covered=pure,
        pure=pure,
        cm=cm_wit is None,
        cm_witness=None if cm_wit is None else (named(cm_wit[0]), cm_wit[1]),
        buchsbaum=bb,
        buchsbaum_witness=None if bb_wit is None else (named(bb_wit[0]), bb_wit[1]),
        vertex_decomposable=shedding is not None,
        shellable=shell.status,
        shelling_order=None if shell.order is None else tuple(named(f) for f in shell.order),
        pdim=pdim,
        depth=None if pdim is None else n - pdim,
        betti=betti,
    )
    _assert_report_invariants(report)
    return report
