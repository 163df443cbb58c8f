import math
import random
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circm.complexes
from circm import (
    Complex,
    alpha,
    circulant,
    faces,
    family_f_vector,
    f_vector,
    independence_complex,
    interval_circulant,
    is_well_covered,
    lex_product,
    link,
)
from circm.complexes import h_from_f
from circm.graphs import induced_subgraph

from conftest import brute_independent_sets, brute_maximal_independent_sets, brute_well_covered_alpha, downward_closure, graph_from_edges, recursion_limit_above_here


small_circulants = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=1, max_value=n // 2), max_size=n // 2),
    )
)


def build(params):
    n, s = params
    return circulant(n, sorted(s))


# small edge sets leave many graphs disconnected, often with isolated vertices
small_graphs = st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.builds(
        graph_from_edges,
        st.just(n),
        st.sets(st.sampled_from(list(combinations(range(n), 2)))) if n > 1 else st.just(set()),
    )
)


def enumerated_set_count(run) -> int:
    """How many maximal independent sets ``run()`` enumerates, summed over
    every call of the enumerator."""
    code = circm.complexes._maximal_independent_sets.__code__
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "return" and frame.f_code is code and arg is not None:
            count += len(arg)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


class TestComplexValidation:
    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            Complex(3, frozenset({frozenset({1}), frozenset({1, 2})}))

    def test_rejects_a_pair_apart_in_size_order(self):
        # {1} < {1, 4, 5}, with a facet of size 2 between them
        with pytest.raises(ValueError, match="antichain"):
            Complex.from_facets(5, [[1], [2, 3], [1, 4, 5]])

    def test_accepts_an_impure_antichain(self):
        c = Complex.from_facets(5, [[1, 2, 3], [3, 4], [5], [2, 4]])
        assert (c.dim(), c.is_pure(), len(c.facets)) == (2, False, 4)

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Complex(2, frozenset({frozenset({3})}))

    @pytest.mark.parametrize("facets", [[[1.5, 2]], [[True, 2]], [[1], [2.0]], [["1"]]], ids=["float", "bool", "integral-float", "str"])
    def test_rejects_a_vertex_that_is_not_an_int(self, facets):
        # a vertex is a bit of the facet masks the deciders read; True would
        # pass as vertex 1
        bad = next(v for f in facets for v in f if type(v) is not int)
        with pytest.raises(ValueError, match=f"vertex {bad!r} is not an int"):
            Complex.from_facets(3, facets)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_rejects_a_vertex_count_that_is_not_an_int(self, n):
        with pytest.raises(ValueError, match=f"got {n!r}"):
            Complex(n, frozenset({frozenset({1})}))

    def test_from_facets_reduce(self):
        c = Complex.from_facets(3, [[1], [1, 2]], reduce=True)
        assert c.facets == frozenset({frozenset({1, 2})})

    def test_empty_complex(self):
        c = Complex.from_facets(0, [[]])
        assert c.dim() == -1
        assert faces(c) == frozenset({frozenset()})

    def test_has_face(self):
        c = Complex.from_facets(3, [[1, 2], [3]])
        assert c.has_face([1])
        assert c.has_face([])
        assert not c.has_face([1, 3])


class TestFaceEnumeration:
    def test_faces_is_downward_closure(self):
        c = Complex.from_facets(4, [[1, 2, 3], [3, 4]])
        assert faces(c) == downward_closure(set(c.facets))

    def test_f_vector_simplex(self):
        c = Complex.from_facets(3, [[1, 2, 3]])
        fh = f_vector(c)
        assert fh.f == (1, 3, 3, 1)
        assert fh.h == (1, 0, 0, 0)

    def test_f_vector_cycle(self):
        # hollow triangle: an unfilled cycle on three vertices
        c = Complex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
        fh = f_vector(c)
        assert fh.f == (1, 3, 3)
        assert fh.h == (1, 1, 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_f_vector_counts_the_downward_closure(self, n):
        complexes = [independence_complex(circulant(n, s)) for r in range(n // 2 + 1) for s in combinations(range(1, n // 2 + 1), r)]
        # a simplex on the odd labels beside the edge {2, 4}: gaps, and impure from n = 6
        complexes.append(Complex.from_facets(n, [range(1, n + 1, 2)] + ([[2, 4]] if n >= 4 else [])))
        for c in complexes:
            sizes = [len(f) for f in downward_closure(set(c.facets))]
            assert f_vector(c).f == tuple(sizes.count(k) for k in range(c.dim() + 2))

    def test_f_vector_of_the_empty_complex(self):
        fh = f_vector(Complex.from_facets(0, [[]]))
        assert (fh.dim, fh.f, fh.h) == (-1, (1,), (1,))

    def test_h_from_f_alternating_sum(self):
        # h_{D+1} equals the reduced Euler characteristic up to sign
        f = (1, 7, 14, 7)
        h = h_from_f(f)
        assert h == (1, 4, 3, -1)
        assert sum(h) == f[-1]


class TestIndependenceComplex:
    @given(small_circulants)
    @settings(max_examples=40, deadline=None)
    def test_facets_are_maximal_independent_sets(self, params):
        g = build(params)
        c = independence_complex(g)
        assert set(c.facets) == brute_maximal_independent_sets(g)

    @given(small_circulants)
    @settings(max_examples=25, deadline=None)
    def test_faces_are_exactly_independent_sets(self, params):
        g = build(params)
        assert faces(independence_complex(g)) == brute_independent_sets(g)

    def test_hexagon_complement_pairing(self):
        # maximal independent sets of C6(2,3) are the six cyclically adjacent pairs
        c = independence_complex(circulant(6, [2, 3]))
        assert c.facets == frozenset(frozenset({i, i % 6 + 1}) for i in range(1, 7))

    def test_an_edgeless_graph_deeper_than_the_recursion_limit(self):
        # one Bron-Kerbosch frame per vertex added: 400 of them, on an
        # explicit stack, under a limit 150 frames above this one
        with recursion_limit_above_here(150):
            c = independence_complex(circulant(400, []))
        assert c.facets == {frozenset(range(1, 401))}

    def test_graph_with_no_vertices_has_the_empty_complex(self):
        assert independence_complex(induced_subgraph(circulant(5, [1]), [])) == Complex.from_facets(0, [[]])

    def test_alpha_and_well_covered(self):
        assert alpha(circulant(7, [1])) == 3
        assert is_well_covered(circulant(7, [1]))
        assert not is_well_covered(circulant(8, [1]))


class TestWellCoveredByComponents:
    @staticmethod
    def check_against_brute(g):
        sizes = {len(m) for m in brute_maximal_independent_sets(g)}
        assert (is_well_covered(g), alpha(g)) == (len(sizes) == 1, max(sizes))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(small_graphs)
    @example(graph_from_edges(0, []))
    @example(graph_from_edges(7, [(0, 1), (2, 3), (3, 4)]))
    def test_matches_brute_force(self, g):
        self.check_against_brute(g)

    @pytest.mark.parametrize(
        "g,h",
        [
            ((2, []), (5, [1])),
            ((5, [1]), (2, [])),
            ((3, []), (3, [1])),
            ((3, [1]), (3, [])),
            ((2, []), (4, [1])),
            ((4, [1]), (2, [])),
            ((3, []), (3, [])),
            ((1, []), (6, [2])),
        ],
    )
    def test_lex_products_with_an_edgeless_factor(self, g, h):
        self.check_against_brute(lex_product(circulant(*g), circulant(*h)))

    def test_every_circulant_up_to_14_vertices(self):
        for n in range(1, 15):
            for r in range(n // 2 + 1):
                for s in combinations(range(1, n // 2 + 1), r):
                    g = circulant(n, s)
                    assert (is_well_covered(g), alpha(g)) == brute_well_covered_alpha(g), (n, s)

    def test_every_lex_product_of_circulants_on_at_most_5_vertices(self):
        factors = [circulant(n, s) for n in range(1, 6) for r in range(n // 2 + 1) for s in combinations(range(1, n // 2 + 1), r)]
        for g in factors:
            for h in factors:
                prod = lex_product(g, h)
                assert (is_well_covered(prod), alpha(prod)) == brute_well_covered_alpha(prod), (g.origin, h.origin)

    def test_seeded_random_graphs(self):
        rng = random.Random(2000)
        for _ in range(2000):
            n, p = rng.randrange(13), rng.random()
            g = graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            assert (is_well_covered(g), alpha(g)) == brute_well_covered_alpha(g), g.adj

    def test_a_path_deeper_than_the_recursion_limit(self):
        # the path's lowest vertex leaves the path two or three vertices
        # shorter: about 600 masks wait on the stack before P_3 answers
        # False; with a leaf on each of 600 path vertices the graph is
        # well-covered and every mask is decided
        path = graph_from_edges(1200, [(i, i + 1) for i in range(1199)])
        whiskered = graph_from_edges(1200, [(i, i + 1) for i in range(599)] + [(i, 600 + i) for i in range(600)])
        with recursion_limit_above_here(150):
            got = (is_well_covered(path), alpha(path), is_well_covered(whiskered))
        assert got == (False, 600, True)

    def test_disjoint_triangles_list_no_maximal_independent_set(self):
        # C6()[C6(2)] is twelve disjoint triangles: 3^12 maximal independent
        # sets as a whole, 12 * 3 one component at a time, and none listed
        # when each triangle is decided by its closed neighbourhoods
        g = lex_product(circulant(6, []), circulant(6, [2]))
        assert enumerated_set_count(lambda: (is_well_covered(g), alpha(g))) == 0
        assert is_well_covered(g) and alpha(g) == 12


class TestClosedFormFVector:
    @pytest.mark.parametrize("n,d", [(7, 1), (11, 2), (15, 3), (6, 2), (4, 2)])
    def test_matches_enumeration(self, n, d):
        assert family_f_vector(n, d).f == f_vector(independence_complex(interval_circulant(n, d))).f

    def test_known_values(self):
        assert family_f_vector(7, 1).f == (1, 7, 14, 7)
        assert family_f_vector(11, 2).f == (1, 11, 33, 22)
        assert family_f_vector(15, 3).f == (1, 15, 60, 50)

    def test_dimension_formula(self):
        for n, d in [(7, 1), (11, 2), (20, 4)]:
            assert family_f_vector(n, d).dim == n // (d + 1) - 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            family_f_vector(3, 2)


class TestSubcomplexOperations:
    def setup_method(self):
        self.c = independence_complex(circulant(8, [1, 2]))

    def test_link_definition(self):
        # Ind(C8(1,2)), then seeded random complexes, 27 of the 60 not
        # flag: the link's facets f - F need no reduction to an antichain
        rng = random.Random(31)
        complexes = [self.c]
        for _ in range(60):
            n = rng.randint(1, 7)
            complexes.append(Complex.from_facets(n, [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(1, 5))], reduce=True))
        for c in complexes:
            for face in faces(c):
                expected = {g for g in faces(c) if not (g & face) and (g | face) in faces(c)}
                assert faces(link(c, face)) == expected, (c.facets, face)

    def test_link_of_empty_face(self):
        lk = link(self.c, [])
        assert lk.facets == self.c.facets

    def test_link_rejects_non_face(self):
        with pytest.raises(ValueError):
            link(self.c, [1, 2])

    @given(small_circulants, st.data())
    @settings(max_examples=25, deadline=None)
    def test_restrict_commutes_with_induced_subgraph(self, params, data):
        from circm import induced_subgraph

        g = build(params)
        w = data.draw(st.sets(st.sampled_from(list(g.labels)), min_size=1))
        lhs = {f for f in faces(independence_complex(g)) if f <= w}
        rhs = independence_complex(induced_subgraph(g, w))
        assert lhs == faces(rhs)


class TestFamilyIntegrality:
    @pytest.mark.parametrize("n", range(4, 21))
    def test_counts_are_integers_and_positive(self, n):
        for d in range(1, n // 2 + 1):
            fh = family_f_vector(n, d)
            assert all(x > 0 for x in fh.f)
            assert fh.f[1] == n
            if fh.dim >= 1:
                assert fh.f[2] == n * (n - 2 * d - 1) // 2 or d * 2 + 1 > n
