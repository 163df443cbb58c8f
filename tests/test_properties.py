import math
import random
from itertools import combinations

import pytest

from circm import (
    Complex,
    FieldChoice,
    GuardError,
    alpha,
    circulant,
    independence_complex,
    interval_circulant,
    full_report,
    is_buchsbaum,
    is_cohen_macaulay,
    is_shellable,
    is_vertex_decomposable,
    is_well_covered,
    projective_dimension,
    reisner_violation,
)
import circm.complexes
import circm.properties
from circm.complexes import _masks
from circm.graphs import induced_subgraph
from circm.properties import buchsbaum_violation, check_shelling_order
from test_oracle import record_scans

from conftest import recursion_limit_above_here

Q = FieldChoice.rational()
GF = FieldChoice.gf()


def ind(n, s):
    return independence_complex(circulant(n, list(s)))


class TestReisner:
    def test_complete_graph_is_cm(self):
        # Ind(K4) is four isolated points: zero-dimensional, hence CM
        assert is_cohen_macaulay(ind(4, [1, 2]), Q)

    def test_connected_cycle_is_cm(self):
        assert is_cohen_macaulay(ind(5, [1]), Q)

    def test_disconnected_complex_fails_at_empty_face(self):
        # Ind(C4(1)) is two disjoint edges
        assert reisner_violation(ind(4, [1]), Q) == ((), 0)

    def test_odd_hole_fails_at_empty_face(self):
        # Ind(C7(1)) carries a circle class below the top dimension
        wit = reisner_violation(ind(7, [1]), Q)
        assert wit == ((), 1)

    def test_solid_simplex(self):
        assert is_cohen_macaulay(Complex.from_facets(4, [[1, 2, 3, 4]]), Q)


class TestBuchsbaum:
    def test_cm_implies_buchsbaum(self):
        assert is_buchsbaum(ind(5, [1]), Q)

    def test_boundary_cases_of_interval_family(self):
        # n = 2d+2 and n = 4d+3 are Buchsbaum but not CM
        for n, d in [(4, 1), (7, 1), (6, 2), (11, 2)]:
            c = independence_complex(interval_circulant(n, d))
            assert is_buchsbaum(c, Q)
            assert not is_cohen_macaulay(c, Q)

    def test_rejects_impure_complex(self):
        with pytest.raises(ValueError):
            is_buchsbaum(ind(8, [1]), Q)

    def test_pure_graph_complexes_are_buchsbaum(self):
        # in dimension one the link condition is vacuous
        c = Complex.from_facets(5, [[1, 2], [1, 3], [1, 4], [2, 5]])
        assert is_buchsbaum(c, Q)

    def test_non_buchsbaum(self):
        # two triangles sharing a vertex: the link of 3 is disconnected
        # while the condition demands vanishing H0 there
        c = Complex.from_facets(5, [[1, 2, 3], [3, 4, 5]])
        assert not is_buchsbaum(c, Q)


class TestVertexDecomposable:
    def test_simplex(self):
        assert is_vertex_decomposable(Complex.from_facets(3, [[1, 2, 3]]))

    def test_cycle_family(self):
        assert is_vertex_decomposable(ind(5, [1]))
        assert is_vertex_decomposable(ind(6, [2, 3]))

    def test_impure_is_not_vd(self):
        assert not is_vertex_decomposable(ind(8, [1]))

    def test_disconnected_is_not_vd(self):
        assert not is_vertex_decomposable(ind(4, [1]))

    def test_a_path_of_more_edges_than_the_recursion_limit(self):
        # the lowest vertex sheds at every step, and each deletion is the
        # path one edge shorter: 300 searches deep, on an explicit stack,
        # under a limit 150 frames above this one
        path = Complex.from_facets(301, [[i, i + 1] for i in range(1, 301)])
        with recursion_limit_above_here(150):
            vd = is_vertex_decomposable(path)
        assert vd


class TestEmptyComplex:
    # {emptyset}: Ind of a graph with no vertices, the ring is the field itself
    EMPTY = Complex.from_facets(0, [[]])

    def test_deciders(self):
        for field in (Q, GF):
            assert reisner_violation(self.EMPTY, field) is None
            assert buchsbaum_violation(self.EMPTY, field) is None
            assert projective_dimension(self.EMPTY, field) == 0
        assert is_shellable(self.EMPTY).status is True
        assert is_vertex_decomposable(self.EMPTY)

    def test_report_of_a_graph_with_no_vertices(self):
        r = full_report(induced_subgraph(circulant(5, [1]), []), include_betti=True)
        assert r.cm and r.buchsbaum and r.vertex_decomposable and r.shellable is True
        assert (r.pdim, r.depth, r.alpha, r.dim) == (0, 0, 0, -1)
        assert r.shelling_order == ((),)
        assert r.betti == {-1: 1}


class TestShellability:
    def test_connected_graph_complex_is_shellable(self):
        res = is_shellable(ind(6, [2, 3]), field=Q)
        assert res.status is True
        assert res.order is not None
        assert check_shelling_order(list(res.order))

    def test_disconnected_is_not_shellable(self):
        assert is_shellable(ind(4, [1]), field=Q).status is False

    def test_impure_is_not_shellable(self):
        assert is_shellable(ind(8, [1]), field=Q).status is False

    def test_homology_obstruction(self):
        # Ind(C7(1)) has a circle class below top dimension: not shellable
        assert is_shellable(ind(7, [1]), field=Q).status is False

    def test_two_dimensional_example(self):
        # a fan of triangles glued along edges
        c = Complex.from_facets(5, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        res = is_shellable(c, field=Q)
        assert res.status is True
        assert check_shelling_order(list(res.order))

    def test_two_dimensional_independence_complex(self):
        # Ind(C11(1,2)) is pure of dimension 2 and well-covered, but its
        # h-vector ends in -1, so it cannot be shellable
        assert is_shellable(ind(11, [1, 2]), field=Q).status is False

    @pytest.mark.parametrize(
        "n, s, order",
        [
            (5, [1, 2], [[1], [2], [3], [4], [5]]),
            (6, [2, 3], [[1, 2], [1, 6], [2, 3], [3, 4], [4, 5], [5, 6]]),
            (8, [2, 3, 4], [[1, 2], [1, 8], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8]]),
            (
                10,
                [2, 4],
                [[1, 2], [1, 4], [1, 6], [1, 8], [1, 10], [2, 3], [2, 5], [2, 7], [2, 9], [3, 4], [3, 6], [3, 8], [3, 10]]
                + [[4, 5], [4, 7], [4, 9], [5, 6], [5, 8], [5, 10], [6, 7], [6, 9], [7, 8], [7, 10], [8, 9], [9, 10]],
            ),
        ],
    )
    def test_orders_in_dimension_at_most_one(self, n, s, order):
        # sorted facets in dimension 0; in dimension 1 each next edge is the
        # first that meets the edges already placed
        res = is_shellable(ind(n, s), field=Q)
        assert res.status is True
        assert [sorted(f) for f in res.order] == order

    def test_budget_counts_one_node_per_edge_in_dimension_one(self):
        c = ind(10, [2, 4])  # 25 edges
        assert is_shellable(c, node_budget=24, field=Q).status is None
        assert is_shellable(c, node_budget=25, field=Q).status is True

    def test_a_path_of_more_edges_than_the_recursion_limit(self):
        # one search node per edge, each edge meeting the one before
        edges = [[i, i + 1] for i in range(1, 1201)]
        res = is_shellable(Complex.from_facets(1201, edges))
        assert (res.status, res.nodes) == (True, 1200)
        assert [sorted(f) for f in res.order] == edges

    def test_check_shelling_order_rejects_bad_order(self):
        # two facets meeting in a single vertex of codimension two
        order = [frozenset({1, 2, 3}), frozenset({3, 4, 5})]
        assert not check_shelling_order(order)

    def test_check_shelling_order_accepts_good_order(self):
        order = [frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({3, 4, 5})]
        assert check_shelling_order(order)


class TestProjectiveDimension:
    def test_cm_values(self):
        # depth equals alpha exactly on Cohen-Macaulay complexes
        for n, s in [(5, [1]), (4, [1, 2]), (6, [2, 3])]:
            g = circulant(n, s)
            c = independence_complex(g)
            pd = projective_dimension(c, Q)
            assert n - pd == alpha(g)

    def test_non_cm_gap(self):
        g = circulant(7, [1])
        pd = projective_dimension(independence_complex(g), Q)
        assert 7 - pd == 2 < alpha(g) == 3

    def test_guard(self):
        with pytest.raises(GuardError):
            projective_dimension(independence_complex(circulant(17, [1])), Q)

    def test_guard_override(self):
        c = ind(6, [1])
        with pytest.raises(GuardError):
            projective_dimension(c, Q, max_vertices=5)
        assert projective_dimension(c, Q, max_vertices=None) == projective_dimension(c, Q)

    def test_fields_agree(self):
        c = ind(10, [2, 5])
        assert projective_dimension(c, Q) == projective_dimension(c, GF)


class TestFullReport:
    def test_cm_example(self):
        r = full_report(circulant(5, [1]))
        assert r.cm and r.vertex_decomposable and r.shellable is True
        assert r.well_covered and r.buchsbaum
        assert (r.pdim, r.depth, r.alpha) == (3, 2, 2)
        assert r.fh.f == (1, 5, 5)
        assert r.cm_witness is None

    def test_buchsbaum_not_cm_example(self):
        r = full_report(circulant(7, [1]))
        assert r.buchsbaum and not r.cm
        assert not r.vertex_decomposable and r.shellable is False
        assert r.fh.h == (1, 4, 3, -1)
        assert not r.h_nonnegative
        assert r.cm_witness is not None

    def test_impure_example(self):
        r = full_report(circulant(8, [1]))
        assert not r.well_covered and not r.pure
        assert not (r.cm or r.buchsbaum or r.vertex_decomposable)
        assert r.shellable is False

    def test_pdim_guard_reports_none(self):
        r = full_report(circulant(17, [1]))
        assert r.pdim is None and r.depth is None

    def test_betti_included_on_request(self):
        r = full_report(circulant(7, [1]), include_betti=True)
        assert r.betti == {-1: 0, 0: 0, 1: 1, 2: 0}

    def test_vertex_decomposable_circulants_report_their_shedding_order(self):
        vd = 0
        for n in range(1, 13):
            for r in range(n // 2 + 1):
                for s in combinations(range(1, n // 2 + 1), r):
                    rep = full_report(circulant(n, s), pdim_guard=0)
                    if not rep.vertex_decomposable:
                        continue
                    vd += 1
                    assert rep.shellable is True
                    order = [frozenset(f) for f in rep.shelling_order]
                    assert check_shelling_order(order)
                    assert sorted(map(sorted, order)) == sorted(map(sorted, ind(n, s).facets))
        assert vd == 80

    # Reports print these orders; C12(4,6) is the disconnected graph of
    # two C6(2, 3), so its complex is a join.  In C12(6)'s order, the k-th
    # facet holds i rather than i + 6 exactly where bit 6 - i of k is set.
    PINNED_ORDERS = {
        (8, (1, 2)): [[3, 8], [3, 7], [3, 6], [5, 8], [4, 8], [4, 7], [2, 7], [2, 6], [2, 5], [1, 6], [1, 5], [1, 4]],
        (12, (6,)): [sorted(i if k >> (6 - i) & 1 else i + 6 for i in range(1, 7)) for k in range(64)],
        (12, (4, 6)): [
            [9, 10, 11, 12], [8, 9, 10, 11], [7, 9, 10, 12], [7, 8, 9, 10], [6, 8, 9, 11], [6, 7, 8, 9],
            [5, 7, 10, 12], [5, 7, 8, 10], [5, 6, 7, 8], [4, 6, 9, 11], [4, 6, 7, 9], [4, 5, 6, 7],
            [3, 5, 10, 12], [3, 5, 8, 10], [3, 5, 6, 8], [3, 4, 5, 6], [2, 9, 11, 12], [2, 7, 9, 12],
            [2, 5, 7, 12], [2, 4, 9, 11], [2, 4, 7, 9], [2, 4, 5, 7], [2, 3, 5, 12], [2, 3, 4, 5],
            [1, 10, 11, 12], [1, 8, 10, 11], [1, 6, 8, 11], [1, 4, 6, 11], [1, 3, 10, 12], [1, 3, 8, 10],
            [1, 3, 6, 8], [1, 3, 4, 6], [1, 2, 11, 12], [1, 2, 4, 11], [1, 2, 3, 12], [1, 2, 3, 4],
        ],
    }

    @pytest.mark.parametrize("n,s", PINNED_ORDERS)
    def test_pinned_shelling_orders(self, n, s):
        r = full_report(circulant(n, s), pdim_guard=0)
        assert r.vertex_decomposable and [list(f) for f in r.shelling_order] == self.PINNED_ORDERS[n, s]

    @pytest.mark.parametrize("n", [12, 16])
    def test_small_budget_on_a_vertex_decomposable_complex(self, n):
        # the shedding order decides shellability: no budget is spent
        r = full_report(circulant(n, [n // 2]), shell_budget=10, pdim_guard=0)
        assert r.vertex_decomposable and r.shellable is True
        assert len(r.shelling_order) == 2 ** (n // 2)

    def test_search_runs_only_when_cohen_macaulay_and_not_vd(self, monkeypatch):
        monkeypatch.setattr(circm.properties, "_shedding", lambda facets, memo: None)
        r = full_report(circulant(12, [6]), shell_budget=10, pdim_guard=0)
        assert r.cm and not r.vertex_decomposable and r.shellable is None
        r = full_report(circulant(12, [6]), pdim_guard=0)
        assert r.shellable is True and check_shelling_order([frozenset(f) for f in r.shelling_order])

    @pytest.mark.parametrize("n", range(4, 13))
    def test_invariants_hold_on_family_sweep(self, n):
        # full_report raises InconsistencyError internally if any
        # implication is violated, so a clean run is the assertion
        for d in range(1, n // 2 + 1):
            r = full_report(interval_circulant(n, d))
            assert r.well_covered == is_well_covered(interval_circulant(n, d))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_buchsbaum_matches_direct_scan(self, d):
        for n in range(2 * d, 4 * d + 7):
            g = interval_circulant(n, d)
            c = independence_complex(g)
            if not c.is_pure():
                continue
            r = full_report(g, pdim_guard=0)
            direct = buchsbaum_violation(c, Q)
            assert (r.buchsbaum, r.buchsbaum_witness) == (direct is None, direct), n

    def test_reisner_witness_spares_the_buchsbaum_scan(self, monkeypatch):
        # one scan, Reisner's on the one decided copy of K2, from the empty face
        scans = record_scans(monkeypatch)
        r = full_report(circulant(12, [6]), pdim_guard=0)
        assert r.cm and r.buchsbaum
        assert [scan[:1] for scan in scans] == [[()]]


    @pytest.mark.parametrize(
        "n, s, whole",
        [(5, [1], 0), (12, [6], 0), (7, [1], 1), (11, [1, 2], 1), (8, [1], 0), (12, [2], 0), (12, [4, 6], 0), (18, [6, 9], 0)],
    )
    def test_a_report_enumerates_faces_at_most_once(self, monkeypatch, n, s, whole):
        # The f-vector comes from the graph.  C5(1) is Cohen-Macaulay and
        # 1-dimensional, so Reisner's scan, which stops below the ridges,
        # draws the empty face only and builds no face level; C7(1) and C11(1,2) fail at the empty face and are pure, so
        # the same walk goes on for Buchsbaum's witness; C8(1) and C12(2),
        # two hexagons, fail at the empty face and are impure, so no scan
        # gets past it.  C12(6), C12(4,6) and C18(6,9) are Cohen-Macaulay
        # joins: one component is scanned, never the whole complex, which
        # is told apart by its facet masks.  Every scan starts an
        # enumeration for its empty face; only one may build a level past it.
        walks = record_levels(monkeypatch)
        r = full_report(circulant(n, s), pdim_guard=0)
        enumerated = [facets for facets, built in walks if built[1:]]
        ind = _masks(independence_complex(circulant(n, s)))
        assert len(enumerated) <= 1 and enumerated.count(ind) == whole
        assert r.buchsbaum is r.pure and r.fh.f == tuple(map(len, circm.complexes._face_levels(ind)))

    def test_a_non_cohen_macaulay_join_builds_only_the_levels_it_draws(self, monkeypatch):
        # C30(5,15) is five disjoint copies of K_{3,3}, so Ind is the join
        # of five pairs of disjoint triangles: Reisner's witness is the
        # empty face with H~_4, and Buchsbaum's the triangle {1, 11, 21},
        # whose link is the join of the other four pairs.  The one walk of
        # the join for both draws 189 faces through vertex 1 and builds
        # the levels of the empty face, {1}, 26 pairs and 289 triples, not
        # the 202,500 faces through vertex 1
        walks = record_levels(monkeypatch)
        scans = record_scans(monkeypatch)
        r = full_report(circulant(30, [5, 15]))
        assert (r.cm_witness, r.buchsbaum_witness) == (((), 4), ((1, 11, 21), 3))
        (join,) = [built for facets, built in walks if facets == _masks(ind(30, [5, 15]))]
        assert sum(join) <= 317 and [len(scan) for scan in scans] == [1, 189]


def record_levels(monkeypatch) -> list[tuple[frozenset[int], list[int]]]:
    """Record, for each face enumeration ``_face_levels`` starts, its
    facet masks and the size of each level it builds, the empty face's
    first."""
    walks = []
    real = circm.complexes._face_levels

    def counting(facets, *through):
        built = []
        walks.append((facets, built))
        for level in real(facets, *through):
            built.append(len(level))
            yield level

    for module in (circm.complexes, circm.properties):
        monkeypatch.setattr(module, "_face_levels", counting)
    return walks


class TestHochsterReisnerCrossValidation:
    @pytest.mark.parametrize("n,s", [(4, (1,)), (5, (1,)), (6, (1, 3)), (7, (1, 2)), (9, (1, 2, 3)), (10, (1, 4, 5))])
    def test_two_routes_agree(self, n, s):
        g = circulant(n, list(s))
        c = independence_complex(g)
        reisner = is_cohen_macaulay(c, Q)
        hochster = n - projective_dimension(c, Q) == alpha(g)
        assert reisner == hochster


def multiplier_cases(count: int, seed: int) -> list[tuple[int, list[int], int]]:
    """Seeded (n, S, u) with 5 <= n <= 14 and u a unit mod n other than
    1 and -1, which fix every connection set."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, 14)
        units = [u for u in range(2, n - 1) if math.gcd(u, n) == 1]
        if units:
            s = sorted(rng.sample(range(1, n // 2 + 1), rng.randint(0, n // 2)))
            out.append((n, s, rng.choice(units)))
    return out


class TestMultipliers:
    """Vertex i -> u*i mod n (label i + 1 -> u*i mod n + 1) maps C_n(S)
    onto C_n(uS) for every unit u mod n, so the two reports agree but
    for the labels of their witnesses and shelling orders."""

    @pytest.mark.parametrize("field", [Q, FieldChoice.gf(2)], ids=str)
    def test_reports_agree_under_a_multiplier(self, field):
        for n, s, u in multiplier_cases(250, seed=5):
            us = sorted({min(u * x % n, n - u * x % n) for x in s})
            a = full_report(circulant(n, s), field, pdim_guard=None, include_betti=True)
            b = full_report(circulant(n, us), field, pdim_guard=None, include_betti=True)
            case = (n, s, u)
            ja, jb = a.to_json_dict(), b.to_json_dict()
            for key in ("graph", "cm_witness", "shelling_order"):
                del ja[key], jb[key]
            assert ja == jb, case
            assert (a.cm_witness is None) == (b.cm_witness is None), case
            if a.cm_witness is not None:
                assert a.cm_witness[1] == b.cm_witness[1], case
            if b.shelling_order is not None:
                back = pow(u, -1, n)
                order = [frozenset(back * (v - 1) % n + 1 for v in f) for f in b.shelling_order]
                assert check_shelling_order(order), case
                assert len(order) == len(set(order)) and set(order) == ind(n, s).facets, case
