"""Closed-form classification predicates for circulant families, the
octahedral kernel-cycle construction, and exhaustive verification of
both against the general-purpose checkers."""

from __future__ import annotations

import math
from contextvars import ContextVar
from typing import Optional

from .complexes import independence_complex, is_well_covered
from .errors import Frozen, GuardError, InconsistencyError
from .fields import FieldChoice, rank_of_rows
from .graphs import (
    CirculantSpec,
    CubicDecomposition,
    Graph,
    circulant,
    cubic_decompose,
    interval_circulant,
    lex_product,
    make_circulant,
)
from .homology import build_chain_complex, reduced_betti
from .properties import PropertyReport, full_report


class FamilyStatus(Frozen):
    """Expected classification of C_n(1..d) from the closed forms."""

    __slots__ = ("n", "d", "well_covered_expected", "cm_expected", "buchsbaum_not_cm_expected")

    def __init__(self, n: int, d: int, well_covered_expected: bool, cm_expected: bool, buchsbaum_not_cm_expected: bool) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "well_covered_expected", well_covered_expected)
        object.__setattr__(self, "cm_expected", cm_expected)
        object.__setattr__(self, "buchsbaum_not_cm_expected", buchsbaum_not_cm_expected)


def expected_family_status(n: int, d: int) -> FamilyStatus:
    if not (n >= 2 * d >= 2):
        raise ValueError(f"need n >= 2d >= 2, got n={n}, d={d}")
    return FamilyStatus(
        n=n,
        d=d,
        well_covered_expected=(n <= 3 * d + 2 or n == 4 * d + 3),
        cm_expected=(n <= 3 * d + 2 and n != 2 * d + 2),
        buchsbaum_not_cm_expected=(n == 2 * d + 2 or n == 4 * d + 3),
    )


def expected_cubic_cm(two_n: int, a: int) -> bool:
    """Cohen-Macaulayness of the cubic circulant C_{2n}(a, n)."""
    if two_n % 2 != 0 or two_n < 4:
        raise ValueError(f"2n must be even and >= 4, got {two_n}")
    if not 1 <= a < two_n // 2:
        raise ValueError(f"a must satisfy 1 <= a < {two_n // 2}, got {a}")
    return two_n // math.gcd(a, two_n) in (3, 4)


# --- octahedral kernel cycles -------------------------------------------------

OctTuple = tuple[int, int, int, int, int, int]


class OctahedronWitness(Frozen):
    """Three pairwise-disjoint induced edges and the signed 8-term cycle
    their octahedron contributes to the kernel of the 2-boundary."""

    __slots__ = ("vertices", "cycle")

    def __init__(self, vertices: OctTuple, cycle: dict[int, int]) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "cycle", cycle)  # index in the global 2-face basis -> coefficient


def _octahedron_faces(t: OctTuple) -> list[tuple[frozenset[int], int]]:
    i1, i2, j1, j2, k1, k2 = t
    out = []
    for a, iv in ((1, i1), (2, i2)):
        for b, jv in ((1, j1), (2, j2)):
            for cc, kv in ((1, k1), (2, k2)):
                sign = 1 if (a + b + cc) % 2 == 1 else -1
                out.append((frozenset((iv, jv, kv)), sign))
    return out


def octahedron_witness(g: Graph, t: OctTuple, chain=None) -> OctahedronWitness:
    """Validate the three-disjoint-edges pattern and build its cycle.

    The induced subgraph on the six vertices must consist of exactly the
    edges {t0,t1}, {t2,t3}, {t4,t5}.  The returned cycle is expressed in
    the lexicographic 2-face basis of Ind(g) and is checked to lie in
    the kernel of the 2-boundary.
    """
    if len(set(t)) != 6:
        raise ValueError(f"witness tuple must have six distinct vertices: {t}")
    i1, i2, j1, j2, k1, k2 = t
    want = {frozenset((i1, i2)), frozenset((j1, j2)), frozenset((k1, k2))}
    have = set()
    for a_i, a in enumerate(t):
        for b in t[a_i + 1 :]:
            if g.has_edge(a, b):
                have.add(frozenset((a, b)))
    if have != want:
        raise ValueError(f"induced subgraph on {t} is not three disjoint edges (edges: {sorted(map(sorted, have))})")
    if chain is None:
        chain = build_chain_complex(independence_complex(g))
    index2 = {f: i for i, f in enumerate(chain.bases[2])}
    cycle: dict[int, int] = {}
    for face, sign in _octahedron_faces(t):
        key = tuple(sorted(face))
        if key not in index2:
            raise ValueError(f"{sorted(face)} is not a 2-face of the independence complex")
        cycle[index2[key]] = sign
    boundary = chain.boundaries[2]
    acc: dict[int, int] = {}
    for col, coeff in cycle.items():
        for row, val in boundary[col].items():
            acc[row] = acc.get(row, 0) + coeff * val
    if any(acc.values()):
        raise AssertionError("octahedron cycle is not in the kernel of the 2-boundary")
    return OctahedronWitness(vertices=t, cycle=cycle)


def expected_octahedron_count(d: int) -> int:
    num = (4 * d + 3) * math.comb(d - 1, 2)
    if num % 3:
        raise InconsistencyError(f"(4d+3) * C(d-1, 2) = {num} is not divisible by 3 at d={d}")
    return num // 3


def build_octahedron_list(d: int) -> list[OctTuple]:
    """The rotated family of three-disjoint-edge tuples in C_{4d+3}(1..d).

    Base tuples (1,2; d+3,q; m, 3d+3) with q in d+4..2d+1 and m in
    q+d+1..3d+2 are rotated (adding 1 to every index modulo 4d+3) until
    the fifth coordinate reaches 4d+3.  The count must match both closed
    forms for |L|.
    """
    if d < 3:
        raise ValueError("octahedron list needs d >= 3")
    n = 4 * d + 3

    def rot(t: OctTuple, r: int) -> OctTuple:
        return tuple((x - 1 + r) % n + 1 for x in t)  # type: ignore[return-value]

    out: list[OctTuple] = []
    for q in range(d + 4, 2 * d + 2):
        for m in range(q + d + 1, 3 * d + 3):
            base: OctTuple = (1, 2, d + 3, q, m, 3 * d + 3)
            for r in range(0, n - m + 1):
                out.append(rot(base, r))
    expected = expected_octahedron_count(d)
    by_sum = sum(k * (2 * d - k) for k in range(1, d - 1))
    if len(out) != expected or by_sum != expected:
        raise AssertionError(f"octahedron list size mismatch: built {len(out)}, closed forms {expected} / {by_sum}")
    if len(set(out)) != len(out):
        raise AssertionError("octahedron list contains duplicates")
    for i1, i2, j1, j2, k1, k2 in sorted(out):
        # structural facts used by the distinguished-face argument
        if not (i2 == i1 + 1 and j1 == i2 + d + 1 and i2 < j2 < k1 <= n):
            raise AssertionError(f"octahedron tuple violates the construction pattern: {(i1, i2, j1, j2, k1, k2)}")
    return out


def verify_kernel_rank(d: int, field: Optional[FieldChoice] = None, max_d: Optional[int] = 5) -> int:
    """Rank of the octahedral cycle family; must equal the list size.

    Also re-verifies the distinguished-face argument: walking the list
    in lexicographic order, the 2-face {i2, j2, k1} of each octahedron
    has not appeared among the faces of any earlier octahedron.  A d
    above ``max_d`` raises ``GuardError``; None means no limit.
    """
    if max_d is not None and d > max_d:
        raise GuardError(f"kernel-rank verification guarded at d={max_d}")
    fld = field if field is not None else FieldChoice.rational()
    g = interval_circulant(4 * d + 3, d)
    chain = build_chain_complex(independence_complex(g))
    tuples = build_octahedron_list(d)
    witnesses = [octahedron_witness(g, t, chain) for t in tuples]

    seen: set[frozenset[int]] = set()
    for t in sorted(tuples):
        i1, i2, j1, j2, k1, k2 = t
        distinguished = frozenset((i2, j2, k1))
        if distinguished in seen:
            raise AssertionError(f"distinguished face {sorted(distinguished)} of {t} already appeared")
        seen.update(face for face, _ in _octahedron_faces(t))

    rank = rank_of_rows([w.cycle for w in witnesses], fld)
    if rank != len(tuples):
        raise AssertionError(f"octahedral cycles are rank deficient: rank {rank} of {len(tuples)}")
    return rank


class H2Evidence(Frozen):
    """dim H~_2 of Ind(C_{4d+3}(1..d)) beside the octahedron count."""

    __slots__ = ("d", "computed", "formula", "equal")

    def __init__(self, d: int, computed: int, formula: int, equal: bool) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "equal", equal)


def h2_equality_experiment(d: int, field: Optional[FieldChoice] = None, max_d: Optional[int] = 4) -> H2Evidence:
    """Compare dim H~_2(Ind(C_{4d+3}(1..d))) with (4d+3)/3 * C(d-1, 2).

    The >= direction is a theorem for d >= 3 and is asserted; equality
    is only reported, never asserted.  A d above ``max_d`` raises
    ``GuardError``; None means no limit.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if max_d is not None and d > max_d:
        raise GuardError(f"H~_2 experiment guarded at d={max_d}")
    fld = field if field is not None else FieldChoice.rational()
    formula = expected_octahedron_count(d) if d >= 2 else 0
    ind = independence_complex(interval_circulant(4 * d + 3, d))
    computed = reduced_betti(ind, fld)[2]
    if d >= 3 and computed < formula:
        raise AssertionError(f"H~_2 lower bound violated at d={d}: computed {computed} < {formula}")
    return H2Evidence(d=d, computed=computed, formula=formula, equal=computed == formula)


# --- exhaustive verification ---------------------------------------------------


class VerifyScope(Frozen):
    """How far each theorem verifier searches."""

    __slots__ = ("d_max", "max_two_n", "lex_factor_max", "h2_d_max", "shell_budget")

    def __init__(self, d_max: int = 4, max_two_n: int = 12, lex_factor_max: int = 5, h2_d_max: int = 3, shell_budget: int = 10_000_000) -> None:
        object.__setattr__(self, "d_max", d_max)
        object.__setattr__(self, "max_two_n", max_two_n)
        object.__setattr__(self, "lex_factor_max", lex_factor_max)
        object.__setattr__(self, "h2_d_max", h2_d_max)
        object.__setattr__(self, "shell_budget", shell_budget)

    def family_range(self, d: int) -> range:
        return range(2 * d, 4 * d + 7)


class TheoremResult:
    """Cases run, counterexamples and evidence of one theorem verifier."""

    __slots__ = ("theorem_id", "scope", "cases_run", "failures", "evidence")

    def __init__(
        self,
        theorem_id: str,
        scope: str,
        cases_run: int,
        failures: Optional[list[dict]] = None,
        evidence: Optional[list[dict]] = None,
    ) -> None:
        self.theorem_id = theorem_id
        self.scope = scope
        self.cases_run = cases_run
        self.failures = [] if failures is None else failures
        self.evidence = [] if evidence is None else evidence

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        out = {
            "theorem_id": self.theorem_id,
            "scope": self.scope,
            "cases_run": self.cases_run,
            "failures": self.failures,
        }
        if self.evidence:
            out["evidence"] = self.evidence
        return out


def verify_wellcovered_family(scope: VerifyScope) -> TheoremResult:
    """C_n(1..d) is well-covered iff n <= 3d+2 or n = 4d+3."""
    res = TheoremResult("brown41", f"d=1..{scope.d_max}, n=2d..4d+6", 0)
    for d in range(1, scope.d_max + 1):
        for n in scope.family_range(d):
            res.cases_run += 1
            got = is_well_covered(interval_circulant(n, d))
            want = expected_family_status(n, d).well_covered_expected
            if got != want:
                res.failures.append({"n": n, "d": d, "well_covered": got, "expected": want})
    return res


# The interval-family reports of the current verify_theorems run, shared
# by the "main" and "buchsbaum" verifiers; unset outside a run.
_RUN_REPORTS: ContextVar[dict] = ContextVar("_RUN_REPORTS")


def _family_report(n: int, d: int, scope: VerifyScope) -> PropertyReport:
    memo = _RUN_REPORTS.get({})
    if (n, d) not in memo:
        memo[n, d] = full_report(interval_circulant(n, d), shell_budget=scope.shell_budget, pdim_guard=0)
    return memo[n, d]


def verify_cm_family(scope: VerifyScope) -> TheoremResult:
    """CM = shellable = vertex decomposable = (n <= 3d+2 and n != 2d+2)."""
    res = TheoremResult("main", f"d=1..{scope.d_max}, n=2d..4d+6", 0)
    for d in range(1, scope.d_max + 1):
        for n in scope.family_range(d):
            res.cases_run += 1
            report = _family_report(n, d, scope)
            want = expected_family_status(n, d)
            bad = {}
            if report.well_covered != want.well_covered_expected:
                bad["well_covered"] = report.well_covered
            if report.cm != want.cm_expected:
                bad["cm"] = report.cm
            if report.vertex_decomposable != want.cm_expected:
                bad["vertex_decomposable"] = report.vertex_decomposable
            if report.shellable != want.cm_expected:
                bad["shellable"] = report.shellable
            if bad:
                res.failures.append({"n": n, "d": d, **bad})
    return res


def verify_buchsbaum_family(scope: VerifyScope) -> TheoremResult:
    """Buchsbaum but not CM happens exactly at n = 2d+2 and n = 4d+3."""
    res = TheoremResult("buchsbaum", f"d=1..{scope.d_max}, n=2d..4d+6", 0)
    for d in range(1, scope.d_max + 1):
        for n in scope.family_range(d):
            res.cases_run += 1
            report = _family_report(n, d, scope)
            got = report.buchsbaum and not report.cm
            want = expected_family_status(n, d).buchsbaum_not_cm_expected
            if got != want:
                res.failures.append({"n": n, "d": d, "buchsbaum_not_cm": got, "expected": want})
    return res


def verify_cubic(scope: VerifyScope) -> TheoremResult:
    """Cubic circulants: CM iff 2n/gcd(a,2n) in {3,4}; component split checked."""
    res = TheoremResult("cubic", f"2n=4..{scope.max_two_n}", 0)
    for two_n in range(4, scope.max_two_n + 1, 2):
        n = two_n // 2
        for a in range(1, n):
            res.cases_run += 1
            g = circulant(two_n, sorted({a, n}))
            report = full_report(g, shell_budget=scope.shell_budget, pdim_guard=0)
            want = expected_cubic_cm(two_n, a)
            entry = {"two_n": two_n, "a": a}
            if report.cm != want:
                res.failures.append({**entry, "cm": report.cm, "expected": want})
            deco = cubic_decompose(two_n, a)
            if not _cubic_map_holds(g, a, deco):
                res.failures.append({**entry, "component_not_isomorphic_to": str(deco.component_spec)})
    return res


def _cubic_map_holds(g: Graph, a: int, deco: CubicDecomposition) -> bool:
    """Whether the vertex map behind ``deco`` is an isomorphism from
    g = C_{2n}(a, n) onto ``deco.copies`` copies of its (connected) component.

    With q = 2n/t, copy r sends vertex r + j*a to j when q is even; when q
    is odd it sends r + j*a to 2j and r + n + j*a to 2j + q (mod 2q).
    """
    two_n = g.vertex_count
    q = two_n // deco.t
    model = make_circulant(deco.component_spec)
    image: dict[int, tuple[int, int]] = {}
    for r in range(deco.copies):
        for j in range(q):
            image[(r + j * a) % two_n] = (r, 2 * j if q % 2 else j)
            if q % 2:
                image[(r + two_n // 2 + j * a) % two_n] = (r, (2 * j + q) % (2 * q))
    if len(image) != two_n or set(image.values()) != {(r, x) for r in range(deco.copies) for x in range(model.vertex_count)}:
        return False
    for u, v in g.edges():  # a circulant's label i is its vertex i - 1
        (ru, x), (rv, y) = image[u - 1], image[v - 1]
        if ru != rv or not (model.adj[x] >> y) & 1:
            return False
    return g.edge_count() == deco.copies * model.edge_count()


def _all_circulant_specs(max_n: int) -> list[CirculantSpec]:
    from itertools import combinations

    out = []
    for n in range(1, max_n + 1):
        pool = list(range(1, n // 2 + 1))
        for r in range(len(pool) + 1):
            for s in combinations(pool, r):
                out.append(CirculantSpec(n, s))
    return out


def verify_lex_wellcovered(scope: VerifyScope) -> TheoremResult:
    """G[H] is well-covered iff both factors are."""
    specs = _all_circulant_specs(scope.lex_factor_max)
    res = TheoremResult("lexwc", f"circulant factors with <= {scope.lex_factor_max} vertices", 0)
    graphs = [(spec, make_circulant(spec)) for spec in specs]
    wc = {str(spec): is_well_covered(g) for spec, g in graphs}
    for spec_g, g in graphs:
        for spec_h, h in graphs:
            res.cases_run += 1
            got = is_well_covered(lex_product(g, h))
            want = wc[str(spec_g)] and wc[str(spec_h)]
            if got != want:
                res.failures.append({"g": str(spec_g), "h": str(spec_h), "well_covered": got, "expected": want})
    return res


def verify_h2(scope: VerifyScope) -> TheoremResult:
    """Evidence for the open H~_2 equality; the >= bound is asserted."""
    res = TheoremResult("lemma-h2", f"d=1..{scope.h2_d_max}", 0)
    for d in range(1, scope.h2_d_max + 1):
        res.cases_run += 1
        try:
            ev = h2_equality_experiment(d, max_d=scope.h2_d_max)
        except AssertionError as exc:
            res.failures.append({"d": d, "error": str(exc)})
            continue
        res.evidence.append({"d": d, "computed": ev.computed, "formula": ev.formula, "equal": ev.equal})
    return res


THEOREM_VERIFIERS = {
    "brown41": verify_wellcovered_family,
    "main": verify_cm_family,
    "buchsbaum": verify_buchsbaum_family,
    "cubic": verify_cubic,
    "lexwc": verify_lex_wellcovered,
    "lemma-h2": verify_h2,
}


def verify_theorems(scope: Optional[VerifyScope] = None, theorem_ids: Optional[list[str]] = None) -> list[TheoremResult]:
    """Run the requested theorem verifications (all by default)."""
    scope = scope if scope is not None else VerifyScope()
    ids = theorem_ids if theorem_ids is not None else list(THEOREM_VERIFIERS)
    for tid in ids:
        if tid not in THEOREM_VERIFIERS:
            raise ValueError(f"unknown theorem id {tid!r}; known: {sorted(THEOREM_VERIFIERS)}")
    token = _RUN_REPORTS.set({})
    try:
        return [THEOREM_VERIFIERS[tid](scope) for tid in ids]
    finally:
        _RUN_REPORTS.reset(token)
