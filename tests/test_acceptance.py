"""Acceptance gate: one test per criterion, exact-match assertions only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
status line per criterion.  Every complex touched here feeds the
always-on invariant checks of criterion 11.
"""

import math
from itertools import combinations

import pytest

from circm import (
    FieldChoice,
    alpha,
    build_chain_complex,
    build_octahedron_list,
    circulant,
    connected_components,
    cubic_decompose,
    euler_check,
    expected_cubic_cm,
    expected_family_status,
    f_vector,
    family_f_vector,
    full_report,
    h2_equality_experiment,
    independence_complex,
    interval_circulant,
    is_cohen_macaulay,
    is_isomorphic_small,
    is_well_covered,
    lex_product,
    make_circulant,
    projective_dimension,
    verify_kernel_rank,
)
from circm.theorems import expected_octahedron_count

Q = FieldChoice.rational()
GF = FieldChoice.gf()

# graphs appearing in criteria 1-3, reused by criterion 4
FH_GRAPHS = [(7, (1,)), (11, (1, 2))]
CUBIC_TABLE = [
    ((4, (1, 2)), 1, 1),
    ((6, (1, 3)), 1, 3),
    ((6, (2, 3)), 2, 2),
    ((8, (1, 4)), 2, 3),
    ((10, (2, 5)), 2, 4),
]

# complexes collected while the earlier criteria run; criterion 11
# re-checks the global invariants on all of them
_touched: list = []


def _track(g):
    c = independence_complex(g)
    _touched.append((g, c))
    return c


def _line(num: int, text: str) -> None:
    print(f"criterion {num:2d}: PASS — {text}")


def test_criterion_01_fh_vector_reproduction():
    c7 = _track(circulant(7, [1]))
    fh7 = f_vector(c7)
    assert fh7.f == (1, 7, 14, 7)
    assert fh7.h == (1, 4, 3, -1)

    c11 = _track(circulant(11, [1, 2]))
    fh11 = f_vector(c11)
    # the correct top face count is 22; see the closed form checked in
    # criterion 2 and the direct triple enumeration below
    triples = sum(
        1
        for t in combinations(range(11), 3)
        if all(min(abs(a - b), 11 - abs(a - b)) >= 3 for a, b in combinations(t, 2))
    )
    assert triples == 22
    assert fh11.f == (1, 11, 33, 22)
    assert fh11.h == (1, 8, 14, -1)
    # both h-vectors end negative, ruling out Cohen-Macaulayness
    assert fh7.h[-1] < 0 and fh11.h[-1] < 0
    _line(1, "f/h-vectors of Ind(C7(1)) and Ind(C11(1,2)) reproduced")


def test_criterion_02_closed_form_equals_enumeration():
    cases = 0
    for n in range(2, 21):
        for d in range(1, n // 2 + 1):
            g = interval_circulant(n, d)
            assert family_f_vector(n, d).f == f_vector(_track(g)).f, (n, d)
            cases += 1
    _line(2, f"closed-form f-vector equals enumeration for {cases} (n,d) pairs")


def test_criterion_03_cubic_depth_table():
    for (n, s), depth_expected, alpha_expected in CUBIC_TABLE:
        g = circulant(n, list(s))
        c = _track(g)
        pdim = projective_dimension(c, Q)
        assert n - pdim == depth_expected, (n, s)
        assert alpha(g) == alpha_expected, (n, s)
    _line(3, "cubic table (n-pdim, alpha) = (1,1),(1,3),(2,2),(2,3),(2,4)")


def test_criterion_04_reisner_hochster_cross_validation():
    graphs = [circulant(n, list(s)) for n, s in FH_GRAPHS]
    graphs += [circulant(n, list(s)) for (n, s), _, _ in CUBIC_TABLE]
    graphs += [
        interval_circulant(n, d)
        for d in range(1, 4)
        for n in range(2 * d, 16)
    ]
    for g in graphs:
        c = _track(g)
        reisner = is_cohen_macaulay(c, Q)
        hochster = g.vertex_count - projective_dimension(c, Q) == alpha(g)
        assert reisner == hochster, g.origin
    _line(4, f"Reisner and Hochster agree on Cohen-Macaulayness for {len(graphs)} graphs")


def test_criterion_05_interval_family_classification():
    cases = 0
    for d in range(1, 5):
        for n in range(2 * d, 4 * d + 7):
            expected = expected_family_status(n, d)
            r = full_report(interval_circulant(n, d), Q, pdim_guard=0)
            _touched.append((interval_circulant(n, d), independence_complex(interval_circulant(n, d))))
            assert r.well_covered == expected.well_covered_expected, (n, d)
            assert r.cm == expected.cm_expected, (n, d)
            assert r.vertex_decomposable == expected.cm_expected, (n, d)
            assert r.shellable is not None, (n, d)
            assert r.shellable == r.cm == r.vertex_decomposable, (n, d)
            cases += 1
    _line(5, f"well-covered/CM/VD/shellable classification verified on {cases} interval circulants")


def test_criterion_06_buchsbaum_classification():
    for d in range(1, 5):
        hits = []
        for n in range(2 * d, 4 * d + 7):
            r = full_report(interval_circulant(n, d), Q, pdim_guard=0)
            if r.buchsbaum and not r.cm:
                hits.append(n)
        assert hits == [2 * d + 2, 4 * d + 3], d
    _line(6, "Buchsbaum non-CM interval circulants are exactly n = 2d+2 and n = 4d+3 for d = 1..4")


def test_criterion_07_cubic_classification():
    cases = 0
    for two_n in range(4, 13, 2):
        n = two_n // 2
        for a in range(1, n):
            g = circulant(two_n, sorted({a, n}))
            c = _track(g)
            assert is_cohen_macaulay(c, Q) == expected_cubic_cm(two_n, a), (two_n, a)
            dec = cubic_decompose(two_n, a)
            comps = connected_components(g)
            assert len(comps) == dec.copies, (two_n, a)
            piece = make_circulant(dec.component_spec)
            assert all(is_isomorphic_small(comp, piece) for comp in comps), (two_n, a)
            cases += 1
    _line(7, f"cubic CM classification and component decompositions verified on {cases} graphs")


def test_criterion_08_octahedron_construction():
    for d, count in [(3, 5), (4, 19), (5, 46)]:
        tuples = build_octahedron_list(d)
        assert len(tuples) == count == expected_octahedron_count(d)
        # witness validation, boundary-vanishing, lexicographic novelty of
        # distinguished faces and the rank computation all run inside
        assert verify_kernel_rank(d, Q) == count
    _line(8, "octahedral kernel families of sizes 5/19/46 built and rank-verified for d = 3,4,5")


def test_criterion_09_h2_dimension_evidence():
    for d in range(1, 5):
        predicted = (4 * d + 3) * math.comb(d - 1, 2) // 3 if d >= 2 else 0
        for field in (Q, GF):
            ev = h2_equality_experiment(d, field)
            assert ev.formula == predicted
            if d >= 3:
                assert ev.computed >= ev.formula, (d, str(field))  # the proved direction
            assert ev.equal, (d, str(field))  # observed equality in range
            print(f"    H~2 evidence d={d} field={field}: computed={ev.computed} formula={ev.formula} equal={ev.equal}")
    _line(9, "dim H~2(Ind(C_{4d+3}(1..d))) matches (4d+3)/3 * C(d-1,2) for d = 1..4 over Q and GF(32003)")


def test_criterion_10_lex_product_example():
    g, h = circulant(2, [1]), circulant(5, [1])
    gh, hg = lex_product(g, h), lex_product(h, g)
    named_cm = circulant(10, [1, 4, 5])
    named_not_cm = circulant(10, [1, 2, 3, 5])
    # with adjacency "(u,v)~(x,y) iff {u,x} in G, or u=x and {v,y} in H",
    # C2(1)[C5(1)] is the join of two pentagons and C5(1)[C2(1)] the
    # pentagon of doubled vertices
    assert is_isomorphic_small(hg, named_cm)
    assert is_isomorphic_small(gh, named_not_cm)
    assert is_cohen_macaulay(_track(named_cm), Q)
    assert not is_cohen_macaulay(_track(named_not_cm), Q)
    assert is_cohen_macaulay(_track(hg), Q)
    assert not is_cohen_macaulay(_track(gh), Q)

    # well-coveredness of a product is equivalent to that of both factors
    specs = [
        circulant(n, list(s))
        for n in range(1, 6)
        for s in _all_connection_sets(n)
    ]
    pairs = 0
    for a in specs:
        for b in specs:
            assert is_well_covered(lex_product(a, b)) == (is_well_covered(a) and is_well_covered(b))
            pairs += 1
    _line(10, f"lexicographical products match the named circulants; well-coveredness checked on {pairs} factor pairs")


def _all_connection_sets(n: int):
    half = n // 2
    out = []
    for r in range(half + 1):
        out.extend(combinations(range(1, half + 1), r))
    return out


def test_criterion_11_global_invariants():
    assert _touched, "earlier criteria must populate the shared pool"
    seen = set()
    checked = 0
    for g, c in _touched:
        key = (c.vertex_count, c.facets)
        if key in seen:
            continue
        seen.add(key)
        # boundary composition is asserted inside the chain builder
        build_chain_complex(c)
        assert euler_check(c, Q)
        if g.vertex_count <= 12:
            r = full_report(g, Q, pdim_guard=0)
            assert not r.vertex_decomposable or r.shellable is True
            assert r.shellable is not True or r.cm
            assert not r.cm or (r.buchsbaum and r.well_covered)
            assert r.well_covered == r.pure
        checked += 1
    _line(11, f"dd=0, Euler identity and the implication chain verified on {checked} distinct complexes")
