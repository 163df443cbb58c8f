import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circm import (
    CirculantSpec,
    Graph,
    GuardError,
    circulant,
    connected_components,
    cubic_decompose,
    induced_subgraph,
    interval_circulant,
    is_isomorphic_small,
    lex_product,
    make_circulant,
)

from conftest import circular_distance


small_circulants = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=1, max_value=n // 2), max_size=n // 2),
    )
)


def build(params):
    n, s = params
    return circulant(n, sorted(s))


class TestCirculantSpec:
    def test_str(self):
        assert str(CirculantSpec(10, (1, 4, 5))) == "C10(1,4,5)"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CirculantSpec(6, (4,))
        with pytest.raises(ValueError):
            CirculantSpec(6, (0,))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            CirculantSpec(10, (3, 2))
        with pytest.raises(ValueError):
            CirculantSpec(10, (2, 2))

    def test_empty_connection_set_allowed(self):
        g = circulant(4, [])
        assert g.edge_count() == 0


class TestGraphValidation:
    # vertex 0 is adjacent to 2, vertex 1 to nobody
    @pytest.mark.parametrize(
        "adj, labels, message",
        [
            ((0b100, 0b000, 0b000), (1, 2, 3), "not symmetric"),
            ((0b100, 0b000, 0b001), (1, 2, 3), None),
            ((0b011, 0b001), (1, 2), "loop"),
            ((0b1000, 0b000, 0b000), (1, 2, 3), "out of range"),
            ((0b10, 0b01), (1, 1), "duplicate"),
            ((0b10, 0b01), (1, 2, 3), "length mismatch"),
        ],
        ids=["asymmetric", "symmetric", "loop", "out-of-range", "duplicate-labels", "length-mismatch"],
    )
    def test_rejections(self, adj, labels, message):
        if message is None:
            assert Graph(adj=adj, labels=labels).edges() == [(1, 3)]
        else:
            with pytest.raises(ValueError, match=message):
                Graph(adj=adj, labels=labels)

    def test_asymmetry_past_the_first_set_bit(self):
        # 0 -> {1, 2} with 1 -> 0 but 2 -/-> 0
        with pytest.raises(ValueError, match="not symmetric"):
            Graph(adj=(0b110, 0b001, 0b000), labels=(1, 2, 3))


class TestConstruction:
    def test_cycle(self):
        g = circulant(5, [1])
        assert sorted(g.edges()) == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]

    def test_complete(self):
        g = circulant(4, [1, 2])
        assert g.edge_count() == 6
        assert g.degree_sequence() == [3, 3, 3, 3]

    def test_interval_circulant(self):
        assert interval_circulant(7, 2).edges() == circulant(7, [1, 2]).edges()

    def test_every_circulant_up_to_24_vertices_matches_circular_distance(self):
        for n in range(1, 25):
            half = n // 2
            # by_distance[k][i]: the vertices j at circular distance k + 1 from i
            by_distance = [tuple(sum(1 << j for j in range(n) if circular_distance(n, i, j) == k) for i in range(n)) for k in range(1, half + 1)]
            # want[bits]: the adjacency of C_n(S) for S = {k + 1 : bit k of bits}
            want = [(0,) * n]
            for bits in range(1, 1 << half):
                low = bits & -bits
                want.append(tuple(a | b for a, b in zip(want[bits ^ low], by_distance[low.bit_length() - 1])))
                s = tuple(k + 1 for k in range(half) if bits >> k & 1)
                assert make_circulant(CirculantSpec(n, s)).adj == want[bits], (n, s)
            assert make_circulant(CirculantSpec(n, ())).adj == want[0]

    @given(small_circulants)
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matches_circular_distance(self, params):
        n, s = params
        g = build(params)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert g.has_edge(i, j) == (circular_distance(n, i, j) in s)

    @given(small_circulants)
    @settings(max_examples=30, deadline=None)
    def test_regularity(self, params):
        n, s = params
        g = build(params)
        degs = set(g.degree_sequence())
        assert len(degs) <= 1 or n == 0
        # vertex-transitive, so one shared degree
        if n:
            expected = sum(2 if 2 * x != n else 1 for x in s)
            assert degs == ({expected} if s else {0})


class TestInducedSubgraph:
    def test_labels_preserved(self):
        g = circulant(6, [1])
        h = induced_subgraph(g, [2, 3, 5])
        assert h.labels == (2, 3, 5)
        assert h.edges() == [(2, 3)]

    @given(small_circulants, st.data())
    @settings(max_examples=40, deadline=None)
    def test_edges_agree_with_parent(self, params, data):
        g = build(params)
        w = data.draw(st.sets(st.sampled_from(list(g.labels)), min_size=1))
        h = induced_subgraph(g, sorted(w))
        for a in h.labels:
            for b in h.labels:
                if a < b:
                    assert h.has_edge(a, b) == g.has_edge(a, b)


class TestComponents:
    def test_two_triangles(self):
        comps = connected_components(circulant(6, [2]))
        assert [c.labels for c in comps] == [(1, 3, 5), (2, 4, 6)]
        assert all(c.edge_count() == 3 for c in comps)

    def test_perfect_matching(self):
        comps = connected_components(circulant(6, [3]))
        assert len(comps) == 3
        assert all(c.edge_count() == 1 for c in comps)

    def test_connected(self):
        assert len(connected_components(circulant(7, [1]))) == 1

    @given(small_circulants)
    @settings(max_examples=30, deadline=None)
    def test_components_partition_vertices(self, params):
        g = build(params)
        comps = connected_components(g)
        seen = [v for c in comps for v in c.labels]
        assert sorted(seen) == sorted(g.labels)
        assert sum(c.edge_count() for c in comps) == g.edge_count()


class TestLexProduct:
    def test_vertex_and_edge_counts(self):
        g, h = circulant(2, [1]), circulant(5, [1])
        p = lex_product(g, h)
        assert p.vertex_count == 10
        assert p.edge_count() == g.edge_count() * h.vertex_count**2 + g.vertex_count * h.edge_count()

    @given(
        st.tuples(st.integers(2, 5), st.sets(st.integers(1, 2), max_size=2)),
        st.tuples(st.integers(2, 5), st.sets(st.integers(1, 2), max_size=2)),
    )
    @settings(max_examples=30, deadline=None)
    def test_edge_count_formula(self, gp, hp):
        gn, gs = gp
        hn, hs = hp
        g = circulant(gn, sorted(x for x in gs if x <= gn // 2))
        h = circulant(hn, sorted(x for x in hs if x <= hn // 2))
        p = lex_product(g, h)
        assert p.vertex_count == g.vertex_count * h.vertex_count
        assert p.edge_count() == g.edge_count() * h.vertex_count**2 + g.vertex_count * h.edge_count()

    def test_adjacency_rule(self):
        # (u,v) ~ (x,y) iff {u,x} is an edge of g, or u = x and {v,y} is one of h
        g, h = circulant(3, [1]), circulant(4, [2])
        p = lex_product(g, h)
        nh = h.vertex_count
        for u in range(1, 4):
            for v in range(1, 5):
                for x in range(1, 4):
                    for y in range(1, 5):
                        if (u, v) == (x, y):
                            continue
                        a = (u - 1) * nh + v
                        b = (x - 1) * nh + y
                        expected = g.has_edge(u, x) or (u == x and h.has_edge(v, y))
                        assert p.has_edge(a, b) == expected

    def test_known_products_are_the_named_circulants(self):
        # join of two 5-cycles vs. 5-cycle of doubled vertices
        assert is_isomorphic_small(lex_product(circulant(2, [1]), circulant(5, [1])), circulant(10, [1, 2, 3, 5]))
        assert is_isomorphic_small(lex_product(circulant(5, [1]), circulant(2, [1])), circulant(10, [1, 4, 5]))


class TestCubicDecompose:
    def test_even_quotient(self):
        d = cubic_decompose(12, 3)  # t = 3, 2n/t = 4
        assert (d.t, d.copies) == (3, 3)
        assert str(d.component_spec) == "C4(1,2)"

    def test_odd_quotient(self):
        d = cubic_decompose(12, 4)  # t = 4, 2n/t = 3
        assert (d.t, d.copies) == (4, 2)
        assert str(d.component_spec) == "C6(2,3)"

    def test_connected_case(self):
        d = cubic_decompose(10, 1)
        assert d.copies == 1
        assert str(d.component_spec) == "C10(1,5)"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cubic_decompose(11, 1)
        with pytest.raises(ValueError):
            cubic_decompose(12, 6)

    @pytest.mark.parametrize("two_n", [4, 6, 8, 10, 12])
    def test_components_isomorphic_to_claimed_pieces(self, two_n):
        for a in range(1, two_n // 2):
            dec = cubic_decompose(two_n, a)
            g = circulant(two_n, sorted({a, two_n // 2}))
            comps = connected_components(g)
            assert len(comps) == dec.copies
            assert dec.copies * dec.component_spec.n == two_n
            piece = make_circulant(dec.component_spec)
            assert all(is_isomorphic_small(c, piece) for c in comps)


class TestIsomorphism:
    def test_reflexive_and_relabel(self):
        g = circulant(5, [1])
        assert is_isomorphic_small(g, g)
        assert is_isomorphic_small(circulant(5, [1]), circulant(5, [2]))

    def test_distinguishes(self):
        assert not is_isomorphic_small(circulant(6, [1]), circulant(6, [2]))
        assert not is_isomorphic_small(circulant(6, [1]), circulant(5, [1]))

    def test_guard(self):
        with pytest.raises(GuardError):
            is_isomorphic_small(circulant(13, [1]), circulant(13, [1]))

    @given(small_circulants, st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_relabeling(self, params, rng):
        from circm import Graph

        g = build(params)
        n = g.vertex_count
        perm = list(range(n))
        rng.shuffle(perm)
        adj = [0] * n
        for i in range(n):
            m = g.adj[i]
            while m:
                low = m & -m
                adj[perm[i]] |= 1 << perm[low.bit_length() - 1]
                m ^= low
        h = Graph(adj=tuple(adj), labels=tuple(range(1, n + 1)))
        assert is_isomorphic_small(g, h)
