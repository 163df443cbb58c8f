"""Deciders for Cohen-Macaulay, Buchsbaum, vertex-decomposable and
shellable complexes, plus projective dimension, assembled into a
cross-checked report.

Every homology question the deciders ask is about a link, in one scan
(``_scan``) that gives Reisner's witness, Buchsbaum's, and the depth,
hence pdim = n - depth; where the rotations that are automorphisms of
G map the scanned vertex set onto itself and are transitive on it, as
on a circulant, it draws only the faces through the least vertex, which
meet every orbit.  A shelling order is certified by counting
(``_verified``), against face counts found without it.  Below the
public functions, which convert once, facets are ``_mask`` bitmasks.
On a flag complex Ind(G) the link of F is Ind(G - N[F]), answered by
one ``InducedHomology`` oracle over vertex masks; any other complex
takes the rank kernel on the link's facets f - F.  The scan takes
(oracle, mask): ``full_report`` passes its oracle and component masks.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import islice
from operator import or_
from typing import Callable, Generator, Iterable, Iterator, Optional

from .complexes import Complex, FHVectors, _face_levels, _mask, _masks, _maximal_independent_sets, _vertices, f_vector, h_from_f, independence_polynomial
from .errors import Frozen, GuardError, InconsistencyError
from .fields import FieldChoice
from .graphs import Graph, _component_masks, induced_subgraph
from .homology import InducedHomology, _betti_by_ranks, _flag_oracle

DEFAULT_SHELL_BUDGET = 10_000_000
PDIM_VERTEX_GUARD = 16

Witness = tuple[tuple[int, ...], int]


def _oracle(c: Complex, field: FieldChoice) -> tuple[frozenset[int], tuple[Optional[InducedHomology], int]]:
    """(``_masks(c)``, (oracle, mask)) with c = Ind(G[mask]): the oracle
    ``_flag_oracle``'s, None when c is not flag, with every vertex."""
    facets = _masks(c)
    return facets, (_flag_oracle(facets, c.vertex_count, field), (1 << c.vertex_count) - 1)


def _sorted_faces(facets: frozenset[int], wanted: Callable[[int], bool] = lambda _: True, through: int = 0) -> Iterator[int]:
    """Every face of the ``_mask`` facets' complex, by size, then in
    lexicographic order of the vertex tuples: the empty face first, then
    each level of ``_face_levels``.  With ``through``, a vertex, only the
    faces whose least vertex it is follow the empty face, in the same
    order.  ``wanted(k)``, asked before level k >= 1 is built and before
    each of its faces, ends the listing at its first False."""
    levels = _face_levels(facets, through)
    yield from next(levels)  # the empty face, before any facet is read
    k = 1
    while wanted(k) and (level := next(levels, [])):
        for m in level:
            yield m
            if not wanted(k):
                return
        k += 1


def _violations(facets: frozenset[int], view: tuple[Optional[InducedHomology], int], candidates: Iterable[int], field: FieldChoice) -> Iterator[Witness]:
    """(face, i) for each candidate face, in order, that fails Reisner's
    test on the complex c of the ``_mask`` facets: i is the least degree
    with H~_i of the link nonzero, below the link's dimension; the face is
    reported as its sorted vertex tuple.  ``view`` is (oracle, mask) with
    c = Ind(G[mask]), or (None, every vertex) for the rank kernel on links.

    The facets of the link of F are f - F for the facets f through F, an
    antichain as the f are, so its dimension is the largest f's less |F|.
    """
    oracle, mask = view
    sizes = {f.bit_count() for f in facets}
    pure_dim = max(sizes) - 1 if len(sizes) == 1 else None
    for face in candidates:
        if oracle is not None:
            closed, rest = face, face
            while rest:
                low = rest & -rest
                closed |= oracle.graph.adj[low.bit_length() - 1]
                rest ^= low
            nonzero = oracle.betti(mask & ~closed)  # lk_F Ind(G[W]) = Ind(G[W - N[F]])
        else:
            nonzero = [i for i, b in _betti_by_ranks([f ^ face for f in facets if f & face == face], field).by_dim if b]
        low = min(nonzero, default=None)
        if low is None:
            continue
        top = pure_dim
        if top is None:  # read from the facets only when some H~_i is nonzero
            top = max(f.bit_count() for f in facets if f & face == face) - 1
        if low < top - face.bit_count():
            yield (_vertices(face), low)


def _scan(
    facets: frozenset[int],
    view: tuple[Optional[InducedHomology], int],
    field: FieldChoice,
    reisner: bool = True,
    buchsbaum: bool = False,
    depth: bool = False,
) -> tuple[Optional[Witness], Optional[Witness], Optional[int]]:
    """(Reisner's witness, Buchsbaum's witness, depth k[c]) from one link
    scan of the complex c of the ``_mask`` facets, each None unless asked
    for.  Reisner's witness is the first violation, or None; Buchsbaum's
    the first past the empty face, not drawn when only Buchsbaum's is
    asked for.  The walk ends once each witness asked for is found and,
    with ``depth``, once the faces left cannot lower the depth.  It always
    stops below the ridges: the link of a face of dim c or more vertices
    has dimension at most 0, and no reduced homology below it, since only
    {∅}, of dimension -1, has H~_-1 nonzero.

    Reisner's test on each skeleton gives the depth (Smith, Hibi): the
    least |F| + 1 + i with H~_i(lk F) nonzero.  A facet gives its size, a
    face passing the test at least its largest facet's, a violation (F, i)
    at least |F| + 1: so once the witnesses are found, no face with
    |F| + 1 at least the least value so far is drawn.

    Where ``InducedHomology.orbit_vertex`` finds the mask's rotations
    transitive, the walk draws the empty face and then only the faces
    through that vertex, the mask's least, in the same order; each size
    is built only once the walk reaches it.  A face's orbit has
    isomorphic links, and its least face in scan order holds the mask's
    least vertex, so the first violation, and the first past the empty
    face, are those of the whole walk; every orbit meets those faces, so
    the depth is too."""
    best = min(f.bit_count() for f in facets) if depth else 0
    first: Optional[Witness] = None
    past_empty: Optional[Witness] = None
    top = max(f.bit_count() for f in facets) - 1

    def wanted(size: int) -> bool:
        return size < top and ((reisner and first is None) or (buchsbaum and past_empty is None) or size + 1 < best)

    oracle, mask = view
    faces = _sorted_faces(facets, wanted, oracle.orbit_vertex(mask) if oracle is not None else 0)
    for face, i in _violations(facets, view, islice(faces, 0 if reisner or depth else 1, None), field):
        first = first or (face, i)
        if face:
            past_empty = past_empty or (face, i)
        best = min(best, len(face) + 1 + i)
    return first if reisner else None, past_empty if buchsbaum else None, best if depth else None


def reisner_violation(c: Complex, field: FieldChoice) -> Optional[Witness]:
    """First face whose link has homology below its dimension.

    Returns (face, i) for the violation, or None when the complex is
    Cohen-Macaulay over the field.  The empty face is checked too, so a
    disconnected complex fails here already.
    """
    return _scan(*_oracle(c, field), field)[0]


def is_cohen_macaulay(c: Complex, field: FieldChoice) -> bool:
    return reisner_violation(c, field) is None


def buchsbaum_violation(c: Complex, field: FieldChoice) -> Optional[Witness]:
    """Like the Cohen-Macaulay test but skipping the empty face.

    Defined for pure complexes only; rejects impure input.
    """
    if not c.is_pure():
        raise ValueError("Buchsbaum is defined for pure complexes only")
    return _scan(*_oracle(c, field), field, reisner=False, buchsbaum=True)[1]


def is_buchsbaum(c: Complex, field: FieldChoice) -> bool:
    return buchsbaum_violation(c, field) is None


# --- vertex decomposability, on facets as vertex bitmasks (``_mask``) ---------

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


def _link_and_deletion(facets: frozenset[int], x: int) -> tuple[frozenset[int], frozenset[int]]:
    """(lk_x, del_x) of pure facets for a vertex x, a bit: the link is
    every facet through x with x cleared, the deletion those avoiding x,
    or the link itself, the same object, when x lies in every facet."""
    link_f = frozenset(f ^ x for f in facets if f & x)
    return link_f, frozenset(f for f in facets if not f & x) or link_f


def _shedding(facets: frozenset[int], memo: dict[frozenset[int], Optional[int]]) -> Optional[int]:
    """The first shedding vertex of pure facets, as a bit: the least vertex
    whose link and deletion are vertex decomposable, 0 for a single facet,
    or None when the facets are not vertex decomposable.

    The stack holds the ``_shedding_steps`` of each family being searched,
    the link or deletion it asks about above it, depth first, so that no
    depth of the search meets the recursion limit; each answer is sent to
    the steps below."""
    stack = [_shedding_steps(facets, memo)]
    found = None
    while True:
        try:
            need = stack[-1].send(found)
        except StopIteration as stop:
            stack.pop()
            found = stop.value
            if not stack:
                return found
        else:
            stack.append(_shedding_steps(need, memo))
            found = None


def _shedding_steps(facets: frozenset[int], memo: dict[frozenset[int], Optional[int]]) -> Generator:
    """Steps to ``_shedding(facets)``: each link, then deletion, whose
    answer it needs is yielded.  x is skipped when its deletion is impure,
    that is when a link facet lies in no facet avoiding x.  A vertex
    decomposable complex is shellable (Provan-Billera), so one of
    dimension >= 1 is connected: a disconnected one is answered None
    before any vertex is tried.

    The memo holds the answer for the family shifted down so that its
    least vertex is bit 0, so translated copies of one family, as the
    components of a circulant or of C_a()[H] are, share one entry."""
    union = reduce(or_, facets)
    low = max((union & -union).bit_length() - 1, 0)  # 0 for the empty facet alone
    key = frozenset(f >> low for f in facets) if low else facets
    if key not in memo:
        found = None
        if len(key) == 1:
            found = 0
        elif next(iter(key)).bit_count() < 2 or _facets_connected(key):  # dimension 0, connected or not
            rest = union >> low
            while rest:
                x = rest & -rest
                rest ^= x
                link_f, del_f = _link_and_deletion(key, x)
                if del_f is not link_f and any(all(g & ~h for h in del_f) for g in link_f):
                    continue
                if (yield link_f) is not None and (yield del_f) is not None:
                    found = x
                    break
        memo[key] = found
    found = memo[key]
    return found and found << low


def is_vertex_decomposable(c: Complex) -> bool:
    """Pure-complex vertex decomposability: a simplex is vertex
    decomposable, and so is a complex with a vertex whose link and
    deletion are; impure complexes are not.  Within one call, results are
    memoized on the facet family shifted to vertex 1 (``_shedding``)."""
    return c.is_pure() and _shedding(_masks(c), {}) is not None


def _order_by_shedding(factors: tuple[frozenset[int], ...], memo: dict[frozenset[int], Optional[int]]) -> list[int]:
    """The shelling order, as facet bitmasks, of the join of the vertex
    decomposable facet families ``factors`` on disjoint vertices (one
    family for a single complex) that its first shedding vertices imply:
    for a shedding vertex x, the order of del_x, then x joined to the
    order of lk_x (Provan-Billera); only the latter when x lies in every
    facet, where del_x is lk_x.  A join is vertex decomposable iff its
    factors are, so x sheds the join iff it sheds its own factor, and the
    join's first shedding vertex is the least of its factors' first ones:
    the order is the one the join's own facets give.  A single facet
    sheds no vertex and is joined whole.  Every branch taken is in the
    memo."""
    first: dict[frozenset[int], tuple] = {}  # each factor's first shedding vertex, link and deletion
    order, stack = [], [(factors, 0)]  # (factors, the vertices joined to each of their facets)
    while stack:
        factors, cone = stack.pop()
        if all(len(f) == 1 for f in factors):
            order.append(reduce(or_, (f for (f,) in factors), cone))
            continue
        for f in factors:
            if f not in first:
                x = _shedding(f, memo)
                first[f] = (x, *_link_and_deletion(f, x)) if x else None
        x, i = min((first[f][0], i) for i, f in enumerate(factors) if first[f] is not None)
        _, link_f, del_f = first[factors[i]]
        stack.append((factors[:i] + (link_f,) + factors[i + 1 :], cone | x))
        if del_f is not link_f:
            stack.append((factors[:i] + (del_f,) + factors[i + 1 :], cone))
    return order


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


def check_shelling_order(order: Iterable[frozenset[int]]) -> bool:
    """Direct test of the shelling condition on a given facet order, pure
    or not: the reference the tests hold ``_verified``'s count to.

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
    prefix it extends.  A positive answer's order is counted against the
    face counts of ``f_vector`` (``_verified``).
    """
    if not c.is_pure():
        return ShellabilityResult(False)
    fld = field if field is not None else FieldChoice.rational()
    # shellable complexes have homology only in the top dimension:
    # Reisner's test on the empty face
    facets, view = _oracle(c, fld)
    if next(_violations(facets, view, [0], fld), None) is not None:
        return ShellabilityResult(False)
    return _shelling_search(facets, node_budget, f_vector(c).f)


def _shelling_counts(order: list[int]) -> tuple[int, list[int]]:
    """(sum over j of 2^(|F_j| - |R_j|), [#{j : |R_j| = k} for k from 0])
    for a pure order of facet bitmasks F_1, F_2, ..., where R_j is the set
    of x in F_j with F_j - x in an earlier facet, so a ridge of one: |F_j|
    lookups in the set of the ridges placed so far."""
    ridges: set[int] = set()
    total, h = 0, [0] * (max((m.bit_count() for m in order), default=0) + 1)
    for m in order:
        rest, r, own = m, 0, []
        while rest:
            x = rest & -rest
            rest ^= x
            own.append(m ^ x)
            r += m ^ x in ridges
        ridges.update(own)
        total += 1 << (m.bit_count() - r)
        h[r] += 1
    return total, h


def _verified(order: list[int], f: tuple[int, ...], nodes: int = 0) -> ShellabilityResult:
    """A positive answer, once its pure order of facet bitmasks passes the
    counting check (Björner-Wachs): the faces that first appear at F_j lie
    in the interval [R_j, F_j] of ``_shelling_counts``, so the order is a
    shelling iff they fill it at every j, iff the intervals' sizes add up
    to sum(f), the face count of the complex with the empty face; and a
    shelling's h_k is #{j : |R_j| = k}, so that must be ``h_from_f(f)``.
    ``f`` comes from elsewhere than the order: the independence polynomial,
    or ``f_vector``.  ``check_shelling_order``, the pairwise test, is the
    reference the tests hold this to."""
    total, h = _shelling_counts(order)
    if total != sum(f) or tuple(h) != h_from_f(f):
        raise InconsistencyError(f"a constructed facet order fails the shelling count: {total} faces and h = {tuple(h)}, against {sum(f)} and {h_from_f(f)}")
    return ShellabilityResult(True, tuple(frozenset(_vertices(m)) for m in order), nodes)


def _shelling_search(facets: frozenset[int], node_budget: int, f: tuple[int, ...]) -> ShellabilityResult:
    """Depth-first over prefixes of facet indices, the ``_mask`` facets in
    order of their vertex tuples, on an explicit stack so that no facet
    count meets the recursion limit.  A prefix is one node: it tries,
    lowest index first, each facet that attaches to it, and is remembered
    as dead by the bits of its indices once none leads on.  An order of
    every facet is counted against ``f``, the face counts, by ``_verified``."""
    masks = sorted(facets, key=_vertices)
    t = len(masks)
    nodes = 0
    dead: set[int] = set()  # prefixes that extend to no shelling, by their bits of placed indices
    placed: list[int] = []
    frames: list[tuple[int, list[int]]] = []  # (bits, facet masks) of each prefix being extended
    key = 0
    while True:
        if len(placed) == t:
            return _verified([masks[i] for i in placed], f, nodes)
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


# --- projective dimension from the depth of the link scan --------------------


def projective_dimension(
    c: Complex,
    field: FieldChoice,
    max_vertices: Optional[int] = PDIM_VERTEX_GUARD,
) -> int:
    """Projective dimension of the face ring, n - depth k[c] by
    Auslander-Buchsbaum, one variable per vertex 1..n, in a face or not.

    The depth comes from Reisner's link scan, ``_scan``, asked for no
    witness: the least |F| + 1 + i over the faces F with H~_i(lk F)
    nonzero, at most the size of the smallest facet.  The scan stops at
    the size the depth found so far bounds, and below the ridges in any
    case.  More than ``max_vertices`` vertices raise ``GuardError``; None
    means no limit.
    """
    n = c.vertex_count
    if max_vertices is not None and n > max_vertices:
        raise GuardError(f"projective_dimension guarded at {max_vertices} vertices (n={n}); pass max_vertices=None to lift it")
    return n - _scan(*_oracle(c, field), field, reisner=False, depth=True)[2]


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

    The f- and h-vectors come from the independence polynomial of g, so
    no face is listed to count it.  One oracle on g answers every
    homology question.  Ind(g) is the join of the complexes of the
    connected components of g, and one component per class of the
    oracle's key is decided, on its facet masks (for a connected g, the
    oracle's): the join is Cohen-Macaulay, hence Buchsbaum, iff every
    component is, vertex decomposable iff every component is, and its
    depth is theirs added.  One link scan of each decided component, on
    the oracle with its mask, gives its Reisner witness and depth, and for
    a connected g Buchsbaum's witness from the same walk; a disconnected
    join is scanned once for both witnesses only when it is not
    Cohen-Macaulay.  Each scan draws one face per orbit of the rotations
    that fix its mask where those are transitive on it (``_scan``).
    Checks run in implication order: vertex decomposable implies
    shellable implies Cohen-Macaulay over every field, so once Reisner's
    criterion rejects the complex no search runs; one memo serves the
    vertex decomposition search on each decided component and then the
    join's shelling order, from the same facets, and only a
    Cohen-Macaulay complex that is not vertex decomposable runs the
    budgeted shelling search, past the pre-checks of ``is_shellable``
    that Cohen-Macaulayness already passed.  Either order is counted
    against the f-vector of the independence polynomial (``_verified``),
    not checked pair by pair.  pdim = n - depth counts one variable per
    vertex of g, whatever its labels; pdim and depth are None when g has
    more than ``pdim_guard`` vertices (0 skips them, None lifts the guard).
    """
    fld = field if field is not None else FieldChoice.rational()
    n = g.vertex_count
    # Only the adjacency and the index order are read, never the labels:
    # indices in increasing label order keep every scan order.
    names = sorted(g.labels)
    flag = g if g.labels == tuple(names) else induced_subgraph(g, names)
    f = independence_polynomial(flag)
    fh = FHVectors(dim=len(f) - 2, f=f, h=h_from_f(f))
    oracle = InducedHomology(flag, fld)
    comps = _component_masks(flag, oracle.full)
    keys = [oracle._key(comp) for comp in comps]

    @cache  # each component's maximal independent sets are listed once
    def facets_of(comp: int) -> frozenset[int]:
        return oracle.facets if comp == oracle.full else frozenset(_maximal_independent_sets(flag, comp))

    decided: dict[int, int] = {}  # key -> mask of its first component
    for k, comp in zip(keys, comps):
        decided.setdefault(k, comp)

    want_depth = pdim_guard is None or n <= pdim_guard
    pure = all(len({f.bit_count() for f in facets_of(comp)}) == 1 for comp in decided.values())
    joined = len(comps) > 1  # a component's witnesses are the join's only when it is the join
    scans = {k: _scan(facets_of(comp), (oracle, comp), fld, buchsbaum=pure and not joined, depth=want_depth) for k, comp in decided.items()}
    cm = all(wit is None for wit, _, _ in scans.values())
    memo: dict[frozenset[int], Optional[int]] = {}  # one search memo for the components and the join's order
    vd = cm and all(_shedding(facets_of(comp), memo) is not None for comp in decided.values())
    cm_wit = bb_wit = None
    if not cm:
        cm_wit, bb_wit, _ = _scan(oracle.facets, (oracle, oracle.full), fld, buchsbaum=pure) if joined else scans[keys[0]]
    if vd:  # the join's order sheds the facets of all its copies as one
        shell = _verified(_order_by_shedding(tuple(map(facets_of, comps)), memo), f)
    else:  # Cohen-Macaulay passed is_shellable's pre-checks: purity, and Reisner's test on the empty face
        shell = _shelling_search(oracle.facets, shell_budget, f) if cm else ShellabilityResult(False)
    pdim = n - sum(scans[k][2] for k in keys) if want_depth else None  # depth adds over a join
    if include_betti:
        nonzero = oracle.betti(oracle.full)  # the components' joined
        betti = {i: nonzero.get(i, 0) for i in range(-1, fh.dim + 1)}
    else:
        betti = None

    def named(face: Iterable[int]) -> tuple[int, ...]:
        return tuple(names[v - 1] for v in sorted(face))

    label = str(g.origin) if g.origin is not None else f"graph(n={g.vertex_count})"
    report = PropertyReport(
        graph_label=label,
        vertex_count=n,
        field=fld,
        alpha=fh.dim + 1,
        krull_dim=max(k for k, count in enumerate(fh.f) if count),
        dim=fh.dim,
        fh=fh,
        h_nonnegative=all(h >= 0 for h in fh.h),
        well_covered=pure,
        pure=pure,
        cm=cm_wit is None,
        cm_witness=None if cm_wit is None else (named(cm_wit[0]), cm_wit[1]),
        buchsbaum=pure and bb_wit is None,
        buchsbaum_witness=None if bb_wit is None else (named(bb_wit[0]), bb_wit[1]),
        vertex_decomposable=vd,
        shellable=shell.status,
        shelling_order=None if shell.order is None else tuple(named(f) for f in shell.order),
        pdim=pdim,
        depth=None if pdim is None else n - pdim,
        betti=betti,
    )
    _assert_report_invariants(report)
    return report
