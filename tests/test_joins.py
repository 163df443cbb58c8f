"""Reports on disconnected graphs, which decide Ind(G) from the complexes
of its components, against the whole-complex deciders called directly on
Ind(G); and the independence polynomial behind every report's f- and
h-vectors against face counts."""

import math
import random
import sys

import pytest

from circm import (
    FieldChoice,
    circulant,
    f_vector,
    full_report,
    independence_complex,
    lex_product,
    projective_dimension,
    reduced_betti,
    reisner_violation,
)
from circm.complexes import independence_polynomial
from circm.graphs import connected_components
from circm.properties import buchsbaum_violation

from conftest import brute_independent_sets, graph_from_edges
from test_oracle import connection_sets, shedding_order

FIELDS = [FieldChoice.rational(), FieldChoice.gf(2)]


def disconnected_circulants(n_max: int):
    for n in range(2, n_max + 1):
        for s in connection_sets(n):
            if math.gcd(n, *s) > 1:
                yield circulant(n, s)


def cubic_circulants(max_two_n: int):
    for two_n in range(4, max_two_n + 1, 2):
        for a in range(1, two_n // 2):
            yield circulant(two_n, sorted({a, two_n // 2}))


def lex_products():
    left = circulant(4, [2])  # two disjoint edges
    for n in range(1, 5):
        for s in connection_sets(n):
            right = circulant(n, s)
            yield f"{left.origin}[{right.origin}]", lex_product(left, right)


LEX = dict(lex_products())
GRAPHS = [*disconnected_circulants(14), *cubic_circulants(20), *(pytest.param(g, id=name) for name, g in LEX.items())]


def test_the_circulants_and_lex_products_of_the_pool_are_joins():
    assert all(len(connected_components(g)) > 1 for g in [*disconnected_circulants(14), *LEX.values()])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: str(g.origin))
def test_report_matches_the_whole_complex_deciders(g, field):
    # circulants and lex products are labelled 1..n, so the report's faces
    # are the complex's own
    c = independence_complex(g)
    r = full_report(g, field, pdim_guard=None, include_betti=True)
    fh = f_vector(c)
    assert (r.fh.f, r.fh.h, r.dim) == (fh.f, fh.h, c.dim())
    assert r.pure == c.is_pure()
    assert r.cm_witness == reisner_violation(c, field)
    if c.is_pure():
        assert r.buchsbaum_witness == buchsbaum_violation(c, field)
    order = shedding_order(c) if r.cm else None
    assert r.vertex_decomposable is (order is not None)
    if order is not None:
        assert [frozenset(f) for f in r.shelling_order] == order
    assert r.pdim == projective_dimension(c, field, max_vertices=None)
    assert r.betti == reduced_betti(c, field).as_dict()


def test_random_disjoint_unions_with_interleaved_labels():
    # two or three small random graphs side by side, their vertices
    # shuffled among one another, so the join's first shedding vertex
    # moves from copy to copy; pieces on one to four vertices are often
    # vertex decomposable
    rng = random.Random(7)
    vd = 0
    for _ in range(150):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        perm = rng.sample(range(sum(sizes)), sum(sizes))
        edges, start = [], 0
        for k in sizes:
            edges += [(perm[start + i], perm[start + j]) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5]
            start += k
        g = graph_from_edges(sum(sizes), edges)
        c = independence_complex(g)
        r = full_report(g, pdim_guard=None)
        order = shedding_order(c)
        vd += order is not None
        assert r.cm_witness == reisner_violation(c, FIELDS[0]), g.adj
        assert r.vertex_decomposable is (order is not None), g.adj
        if order is not None:
            assert [frozenset(f) for f in r.shelling_order] == order, g.adj
        assert r.pdim == projective_dimension(c, FIELDS[0], max_vertices=None), g.adj
    assert vd > 50  # of 150


def test_independence_polynomial_counts_the_faces_of_every_small_circulant():
    for n in range(1, 13):
        for s in connection_sets(n):
            g = circulant(n, s)
            assert independence_polynomial(g) == f_vector(independence_complex(g)).f, (n, s)


def test_independence_polynomial_matches_the_brute_oracle_on_random_graphs():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(0, 10)
        p = rng.random()
        g = graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        sizes = [len(f) for f in brute_independent_sets(g)]
        assert independence_polynomial(g) == tuple(sizes.count(k) for k in range(max(sizes) + 1)), g.adj


def test_independence_polynomial_of_a_path_beyond_the_recursion_limit():
    # the independent k-sets of the path on m vertices: C(m - k + 1, k)
    m = sys.getrecursionlimit() + 100
    g = graph_from_edges(m, [(i, i + 1) for i in range(m - 1)])
    assert independence_polynomial(g) == tuple(math.comb(m - k + 1, k) for k in range((m + 1) // 2 + 1))
