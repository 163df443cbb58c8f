"""The induced-subgraph homology oracle and the deciders that use it,
checked against dense brute-force homology, brute link scans, Hochster's
formula by subset enumeration, and Kozlov's closed forms for paths and
cycles."""

import math
import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circm.complexes
import circm.homology
import circm.properties
from circm import (
    Complex,
    FieldChoice,
    Graph,
    InconsistencyError,
    circulant,
    full_report,
    independence_complex,
    is_shellable,
    is_vertex_decomposable,
    lex_product,
    projective_dimension,
    reduced_betti,
    reisner_violation,
)
from circm.complexes import faces
from circm.graphs import induced_subgraph
from circm.homology import InducedHomology, build_chain_complex
from circm.properties import _oracle, _shedding_order, _sorted_faces, _violations, buchsbaum_violation, check_shelling_order

from conftest import (
    brute_independent_sets,
    brute_maximal_independent_sets,
    brute_reduced_betti,
    brute_vertex_decomposable,
    downward_closure,
    graph_from_edges,
)
from test_homology import RP2

Q = FieldChoice.rational()
FIELDS = [Q, FieldChoice.gf(2), FieldChoice.gf(3)]

# the path 1-2-3 (no rotation of its labels is an automorphism) and an
# edge beside an isolated vertex (no reflection is): their lex product
# leaves the oracle only the plain-mask key
P3 = induced_subgraph(circulant(5, [1]), [1, 2, 3])
K2_K1 = induced_subgraph(circulant(5, [1]), [1, 2, 4])

_BRUTE: dict = {}


def brute_table(faces: set[frozenset[int]], field: FieldChoice) -> dict[int, int]:
    """Reduced Betti numbers of a face set, memoised up to relabeling.

    A cone (some vertex v with f + v a face for every face f) is acyclic;
    that closed form stands in for dense elimination, which over Q takes
    seconds on the larger cones, up to 10 s on the 10-vertex simplex.
    """
    verts = sorted(frozenset().union(*faces))
    relabel = {v: i for i, v in enumerate(verts)}
    key = (frozenset(frozenset(relabel[v] for v in f) for f in faces), field)
    if key not in _BRUTE:
        if any(all(f | {v} in key[0] for f in key[0]) for v in range(len(verts))):
            _BRUTE[key] = {i: 0 for i in range(-1, max(map(len, key[0])))}
        else:
            _BRUTE[key] = brute_reduced_betti(key[0], field)
    return _BRUTE[key]


def independent_masks(adj: tuple[int, ...]) -> list[int]:
    n = len(adj)
    return [m for m in range(1 << n) if all(not (adj[v] & m) for v in range(n) if (m >> v) & 1)]


def as_face(mask: int) -> frozenset[int]:
    return frozenset(v + 1 for v in range(mask.bit_length()) if (mask >> v) & 1)


def dihedral_rep(mask: int, n: int) -> int:
    """Least image of mask under the rotations and reflections of 0..n-1.

    They are automorphisms of every circulant, so the representative
    induces an isomorphic subgraph.
    """
    full = (1 << n) - 1
    mirrored = int(format(mask, f"0{n}b")[::-1], 2)
    return min(((m << r) | (m >> (n - r))) & full for m in (mask, mirrored) for r in range(n))


def connection_sets(n: int):
    for r in range(n // 2 + 1):
        yield from combinations(range(1, n // 2 + 1), r)


def brute_link_scan(faces: set[frozenset[int]]) -> dict:
    """Reisner's criterion face by face, in the deciders' face order.

    Gives, per field, the first face whose link has homology below its
    dimension and the first such nonempty face (the Buchsbaum witness).
    """
    reisner: dict = {}
    buchsbaum: dict = {}
    for face in sorted(faces, key=lambda f: (len(f), sorted(f))):
        link = {f - face for f in faces if face <= f}
        for field in FIELDS:
            if field in buchsbaum:
                continue
            betti = brute_table(link, field)
            low = [i for i in range(-1, max(betti)) if betti[i]]
            if low:
                reisner.setdefault(field, (tuple(sorted(face)), low[0]))
                if face:
                    buchsbaum[field] = (tuple(sorted(face)), low[0])
        if len(buchsbaum) == len(FIELDS):
            break
    return {field: (reisner.get(field), buchsbaum.get(field)) for field in FIELDS}


def brute_pdim(faces: set[frozenset[int]], n: int, field: FieldChoice) -> int:
    """Hochster's formula over every vertex subset W."""
    best = 0
    for w in range(1 << n):
        wf = as_face(w)
        betti = brute_table({f for f in faces if f <= wf}, field)
        best = max([best] + [len(wf) - j - 1 for j, b in betti.items() if b])
    return best


class TestOracleAgainstBruteForce:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_mask_of_every_circulant(self, n):
        for s in connection_sets(n):
            g = circulant(n, s)
            indep = independent_masks(g.adj)
            reps = [dihedral_rep(mask, n) for mask in range(1 << n)]
            faces = {rep: {as_face(i) for i in indep if not i & ~rep} for rep in set(reps)}
            for field in FIELDS:
                oracle = InducedHomology(g, field)
                brute = {rep: brute_table(f, field) for rep, f in faces.items()}
                for mask, rep in enumerate(reps):
                    assert oracle.betti(mask) == {i: b for i, b in brute[rep].items() if b}, (n, s, str(field), mask)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reisner_and_buchsbaum_witnesses_match_a_brute_link_scan(self, n):
        for s in connection_sets(n):
            g = circulant(n, s)
            c = independence_complex(g)
            brute = brute_link_scan({as_face(i) for i in independent_masks(g.adj)})
            for field in FIELDS:
                assert reisner_violation(c, field) == brute[field][0], (n, s, str(field))
                if c.is_pure():
                    assert buchsbaum_violation(c, field) == brute[field][1], (n, s, str(field))

    @pytest.mark.parametrize("prod", [lex_product(P3, K2_K1), lex_product(circulant(4, [1]), circulant(2, [1]))], ids=["P3[K2+K1]", "C4(1)[C2(1)]"])
    def test_lex_products(self, prod):
        n = prod.vertex_count
        indep = independent_masks(prod.adj)
        faces = {as_face(i) for i in indep}
        c = independence_complex(prod)
        scan = brute_link_scan(faces)
        for field in FIELDS:
            oracle = InducedHomology(prod, field)
            for mask in range(1 << n):
                want = brute_table({as_face(i) for i in indep if not i & ~mask}, field)
                assert oracle.betti(mask) == {i: b for i, b in want.items() if b}, mask
            assert reisner_violation(c, field) == scan[field][0]
            assert projective_dimension(c, field) == brute_pdim(faces, n, field)

    def test_plain_key_when_no_rotation_or_reflection_is_an_automorphism(self):
        prod = lex_product(P3, K2_K1)
        oracle = InducedHomology(prod, Q)
        assert all(oracle._key(m) == m for m in range(1 << prod.vertex_count))

    def test_block_rotations_of_a_lex_product_of_circulants_are_used(self):
        # C4(1)[C2(1)]: rotating by one block is an automorphism, by one vertex is not
        oracle = InducedHomology(lex_product(circulant(4, [1]), circulant(2, [1])), Q)
        assert oracle._rotations == [0, 2, 4, 6]
        assert oracle._key(0b1100) == oracle._key(0b11) == 0b11

    def test_symmetries_are_the_rotations_and_reflections_that_are_automorphisms(self):
        rng = random.Random(7)
        graphs = [graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4]) for n in range(13) for _ in range(8)]
        graphs += [lex_product(P3, K2_K1), lex_product(circulant(4, [1]), circulant(2, [1])), lex_product(circulant(3, [1]), circulant(2, []))]
        graphs += [induced_subgraph(circulant(12, s), [1, 2, 4, 5, 7, 8, 10, 11]) for s in ([1], [1, 5], [2, 3])]
        # rotations by whole blocks only, and reflections that are a coset
        # of them not through 0
        graphs += [lex_product(circulant(a, s), h) for a in range(2, 7) for s in connection_sets(a) for h in (P3, K2_K1)]
        for g in graphs:
            n = g.vertex_count
            edges = {frozenset((i, j)) for i in range(n) for j in range(n) if g.adj[i] >> j & 1}

            def automorphism(image):
                return {frozenset(map(image, e)) for e in edges} == edges

            oracle = InducedHomology(g, Q)
            assert oracle._rotations == [r for r in range(max(n, 1)) if automorphism(lambda i: (i + r) % n)], g.adj
            assert oracle._reflections == [r for r in range(max(n, 1)) if automorphism(lambda i: (n - 1 - i + r) % n)], g.adj

    def test_every_rotation_and_reflection_of_a_circulant_is_a_symmetry(self):
        # i -> i + r and i -> r - i preserve circular distance, so all 2n
        # are automorphisms of C_n(S): the scan, which tests rotations at
        # divisors of n and reflections below the least rotation, must
        # still list every one
        for n in range(1, 19):
            for s in connection_sets(n):
                oracle = InducedHomology(circulant(n, s), Q)
                assert oracle._rotations == oracle._reflections == list(range(n)), (n, s)

    @pytest.mark.parametrize("n,s", [(9, (1, 2)), (10, (2, 5)), (10, (1, 3, 5))])
    def test_projective_dimension_matches_hochster_by_subsets(self, n, s):
        g = circulant(n, s)
        faces = {as_face(i) for i in independent_masks(g.adj)}
        assert projective_dimension(independence_complex(g), Q) == brute_pdim(faces, n, Q)


def random_graphs(n: int) -> list[Graph]:
    """A graph on n vertices at each of three edge densities, seeded by n;
    unlike circulants they are not vertex-transitive, so folds and
    undecided splits occur in them."""
    rng = random.Random(1000 + n)
    return [graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]) for p in (0.3, 0.5, 0.7)]


class TestOracleOnRandomGraphs:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_mask(self, n):
        for g in random_graphs(n):
            indep = independent_masks(g.adj)
            for field in FIELDS:
                oracle = InducedHomology(g, field)
                for mask in range(1 << n):
                    want = brute_table({as_face(i) for i in indep if not i & ~mask}, field)
                    assert oracle.betti(mask) == {i: b for i, b in want.items() if b}, (g.adj, str(field), mask)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reisner_and_pdim_match_brute_force(self, n):
        # from six vertices on, most of these complexes are impure, so the
        # dimension of each link with homology comes from the largest facet
        # through its face; the first failing face is mostly the empty one,
        # so every failing face is compared, not only Reisner's witness
        for g in random_graphs(n):
            faces = {as_face(i) for i in independent_masks(g.adj)}
            c = independence_complex(g)
            scan = brute_link_scan(faces)
            for field in FIELDS:
                failing = []
                for face in sorted(faces, key=lambda f: (len(f), sorted(f))):
                    betti = brute_table({f - face for f in faces if face <= f}, field)
                    low = [i for i in range(-1, max(betti)) if betti[i]]
                    failing += [(tuple(sorted(face)), low[0])] if low else []
                assert list(_violations(c, _sorted_faces(c), field)) == failing, (g.adj, str(field))
                assert reisner_violation(c, field) == scan[field][0], (g.adj, str(field))
                assert projective_dimension(c, field) == brute_pdim(faces, n, field), (g.adj, str(field))

    def test_folds_splits_and_fallbacks_all_occur(self, monkeypatch):
        # over every mask of the ten-vertex graphs, components are settled
        # by a fold, by a decided split, and by linear algebra after an
        # undecided split
        settled = []
        real = InducedHomology._split

        def split(self, w):
            folded = self._fold(w) != 0
            betti = yield from real(self, w)
            settled.append("fold" if folded else "split" if betti is not None else "undecided")
            return betti

        monkeypatch.setattr(InducedHomology, "_split", split)
        calls = count_betti_calls(monkeypatch)
        for g in random_graphs(10):
            oracle = InducedHomology(g, Q)
            for mask in range(1 << 10):
                oracle.betti(mask)
        assert set(settled) == {"fold", "split", "undecided"}
        assert 0 < len(calls) <= settled.count("undecided")


HOLLOW_TRIANGLE = [[1, 2], [2, 3], [1, 3]]

# Complexes that are not independence complexes, so every decider takes
# link/restrict instead of the oracle, with their shellability; RP^2 has
# its own tests below.
NON_FLAG = {
    "bd-simplex-3": (Complex.from_facets(4, combinations(range(1, 5), 3)), True),
    "bd-simplex-4": (Complex.from_facets(5, combinations(range(1, 6), 4)), True),
    "moebius-strip-5": (Complex.from_facets(5, [[i, i % 5 + 1, (i + 1) % 5 + 1] for i in range(1, 6)]), False),
    "torus-7": (Complex.from_facets(7, [[i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1] for i in range(7) for a in (1, 2)]), False),
    # every restriction to a vertex set with the apex is a cone
    "cone-over-rp2": (Complex.from_facets(7, [f | {7} for f in RP2.facets]), False),
    "hollow-triangle-and-uncovered-vertex": (Complex.from_facets(4, HOLLOW_TRIANGLE), True),
    "two-hollow-triangles-at-a-vertex": (Complex.from_facets(5, HOLLOW_TRIANGLE + [[3, 4], [4, 5], [3, 5]]), True),
    # a whisker on a graph keeps it pure; a filled triangle does not
    "hollow-triangle-with-whisker": (Complex.from_facets(4, HOLLOW_TRIANGLE + [[3, 4]]), True),
    "hollow-triangle-with-filled-triangle": (Complex.from_facets(5, HOLLOW_TRIANGLE + [[3, 4, 5]]), False),
}


class TestNonFlagFallback:
    @pytest.mark.parametrize("name", NON_FLAG)
    def test_deciders_match_brute_force(self, name):
        c, shellable = NON_FLAG[name]
        assert _oracle(c, Q) is None
        faces = downward_closure(set(c.facets))
        scan = brute_link_scan(faces)
        for field in FIELDS:
            assert reisner_violation(c, field) == scan[field][0], str(field)
            if c.is_pure():
                assert buchsbaum_violation(c, field) == scan[field][1], str(field)
            else:
                with pytest.raises(ValueError):
                    buchsbaum_violation(c, field)
            assert projective_dimension(c, field) == brute_pdim(faces, c.vertex_count, field), str(field)
            assert is_shellable(c, field=field).status is shellable, str(field)
        assert is_vertex_decomposable(c) is shellable

    def test_rp2_is_not_flag(self):
        # every pair of the six vertices spans an edge of RP^2
        assert _oracle(RP2, Q) is None

    def test_independence_complexes_are_flag(self):
        c = Complex.from_facets(5, [[1, 2, 3], [3, 4, 5]])
        oracle = _oracle(c, Q)
        assert oracle is not None and independence_complex(oracle.graph) == c

    def test_rp2_deciders_match_brute_force(self):
        faces = downward_closure(set(RP2.facets))
        scan = brute_link_scan(faces)
        for field in FIELDS:
            assert (reisner_violation(RP2, field), buchsbaum_violation(RP2, field)) == scan[field]
            assert projective_dimension(RP2, field) == brute_pdim(faces, 6, field)
            assert is_shellable(RP2, field=field).status is False

    def test_report_on_a_graph_whose_labels_are_not_in_order(self):
        # full_report recovers the graph from the complex when the labels
        # are not 1..n in order; answers must be those of a brute scan
        prod = lex_product(P3, K2_K1)
        g = Graph(adj=prod.adj, labels=tuple(reversed(prod.labels)))
        faces = {frozenset(g.labels[v] for v in range(9) if (i >> v) & 1) for i in independent_masks(g.adj)}
        r = full_report(g, include_betti=True)
        assert (r.cm_witness, r.buchsbaum_witness) == brute_link_scan(faces)[Q]
        assert r.pdim == brute_pdim(faces, 9, Q)
        assert r.betti == brute_reduced_betti(faces, Q)

    def test_report_counts_only_the_graphs_own_vertices(self):
        # labels 2, 3, 5, 6 leave 1 and 4 out: the face ring still has one
        # variable per vertex of the graph, as for the graph relabelled 1..4
        g = induced_subgraph(circulant(7, [1]), [2, 3, 5, 6])
        r = full_report(g)
        assert (r.cm, r.pdim, r.depth) == (True, 2, 2)
        relabelled = full_report(Graph(adj=g.adj, labels=(1, 2, 3, 4)))
        assert (relabelled.cm, relabelled.pdim, relabelled.depth) == (True, 2, 2)
        assert {v for f in r.shelling_order for v in f} == {2, 3, 5, 6}

    def test_rp2_torsion_shows_only_over_gf2(self):
        assert reisner_violation(RP2, FieldChoice.gf(2)) == ((), 1)
        assert reisner_violation(RP2, Q) is None


@st.composite
def small_circulants(draw):
    n = draw(st.integers(1, 10))
    chosen = draw(st.integers(0, (1 << (n // 2)) - 1))
    return n, tuple(k + 1 for k in range(n // 2) if (chosen >> k) & 1)


def is_shelling(order: list[frozenset[int]]) -> bool:
    """The definition: each facet meets the complex of the earlier ones in
    a pure complex of codimension one in that facet."""
    earlier: set[frozenset[int]] = set()
    for i, facet in enumerate(order):
        if i:
            meet = {f for f in earlier if f <= facet}
            if any(len(f) != len(facet) - 1 for f in meet if not any(f < g for g in meet)):
                return False
        earlier |= downward_closure({facet})
    return True


# Complexes on labels with gaps, so that the canonical form of the vertex
# decomposition search packs several runs of bits, with their vertex
# decomposability
GAPPED = {
    "bd-simplex-on-2-5-9-11": (Complex.from_facets(12, combinations([2, 5, 9, 11], 3)), True),
    "path-on-3-4-7-10-11": (Complex.from_facets(12, [[3, 4], [4, 7], [7, 10], [10, 11]]), True),
    "two-edges-on-2-6-9-12": (Complex.from_facets(12, [[2, 6], [9, 12]]), False),
    "moebius-strip-on-odd-labels": (Complex.from_facets(9, [[2 * v - 1 for v in f] for f in NON_FLAG["moebius-strip-5"][0].facets]), False),
    "cross-polytope-on-even-labels": (Complex.from_facets(12, [[2 * v for v in f] for f in independence_complex(circulant(6, [3])).facets]), True),
}


class TestVertexDecomposabilityAgainstBruteForce:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_circulant(self, n):
        for s in connection_sets(n):
            c = independence_complex(circulant(n, s))
            assert is_vertex_decomposable(c) is brute_vertex_decomposable(c.facets), (n, s)

    @pytest.mark.parametrize("name", NON_FLAG)
    def test_non_flag_complexes(self, name):
        c = NON_FLAG[name][0]
        assert is_vertex_decomposable(c) is brute_vertex_decomposable(c.facets)

    @pytest.mark.parametrize("name", GAPPED)
    def test_labels_with_gaps(self, name):
        c, vd = GAPPED[name]
        assert is_vertex_decomposable(c) is brute_vertex_decomposable(c.facets) is vd
        order = _shedding_order(c)
        assert (order is not None) is vd
        if vd:
            assert sorted(map(sorted, order)) == sorted(map(sorted, c.facets)) and check_shelling_order(order)

    def test_random_pure_complexes(self):
        # 0- to 2-dimensional, up to 7 facets on up to 8 vertices, each
        # inside one of two parts of the vertices: many are disconnected,
        # which the search answers without seeking a shedding vertex
        rng = random.Random(16)
        for _ in range(500):
            n, k = rng.randint(1, 8), rng.randint(1, 3)
            vs, cut = rng.sample(range(1, n + 1), n), rng.randint(0, n - 1)
            pool = [f for part in (vs[:cut], vs[cut:]) for f in combinations(sorted(part), k)]
            if not pool:
                continue
            c = Complex.from_facets(n, rng.sample(pool, rng.randint(1, min(7, len(pool)))))
            vd = brute_vertex_decomposable(c.facets)
            assert is_vertex_decomposable(c) is vd, c.facets
            order = _shedding_order(c)
            assert (order is not None) is vd, c.facets
            if vd:
                assert sorted(map(sorted, order)) == sorted(map(sorted, c.facets)) and check_shelling_order(order)

    @pytest.mark.parametrize(
        "c, vd",
        [
            (independence_complex(circulant(6, [1, 3])), False),  # K_{3,3}: two disjoint triangles
            GAPPED["two-edges-on-2-6-9-12"],
            (Complex.from_facets(4, [[1], [2], [3], [4]]), True),  # isolated points
        ],
        ids=["two-triangles", "two-edges-on-2-6-9-12", "four-points"],
    )
    def test_disconnected_complexes_of_dimension_one_or_more_seek_no_shedding_vertex(self, monkeypatch, c, vd):
        calls = []
        real = circm.properties._shedding_vertex

        def counted(facets, memo):
            calls.append(facets)
            return real(facets, memo)

        monkeypatch.setattr(circm.properties, "_shedding_vertex", counted)
        assert is_vertex_decomposable(c) is brute_vertex_decomposable(c.facets) is vd
        # points are vertex decomposable whether connected or not, and only
        # the search finds that out
        assert bool(calls) is vd

    def test_rp2_and_the_empty_complex(self):
        assert is_vertex_decomposable(RP2) is brute_vertex_decomposable(RP2.facets) is False
        empty = Complex.from_facets(0, [[]])
        assert is_vertex_decomposable(empty) is brute_vertex_decomposable(empty.facets) is True
        assert _shedding_order(empty) == [frozenset()]


class TestShellingConditionAgainstTheDefinition:
    def test_every_order_of_small_complexes_and_shuffles_of_larger_ones(self):
        rng = random.Random(3)
        complexes = [independence_complex(circulant(n, s)) for n, s in [(5, [1]), (6, [2, 3]), (7, [1]), (8, [1, 2]), (8, [4]), (9, [1, 2, 3])]]
        complexes += [NON_FLAG["moebius-strip-5"][0], RP2]
        seen = set()
        for c in complexes:
            facets = sorted(c.facets, key=sorted)
            orders = [list(p) for p in permutations(facets)] if len(facets) <= 6 else [rng.sample(facets, len(facets)) for _ in range(300)]
            for order in orders:
                seen.add(is_shelling(order))
                assert check_shelling_order(order) is is_shelling(order), order
        assert seen == {True, False}

    @staticmethod
    def random_pure_complex(rng: random.Random) -> Complex:
        n = rng.randint(3, 8)
        size = rng.randint(2, min(4, n - 1))
        return Complex.from_facets(n, rng.sample(list(combinations(range(1, n + 1), size)), rng.randint(1, min(7, math.comb(n, size)))))

    def test_search_finds_a_shelling_iff_some_order_is_one(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(200):
            c = self.random_pure_complex(rng)
            res = is_shellable(c, field=Q)
            assert res.status is any(map(is_shelling, permutations(sorted(c.facets, key=sorted)))), sorted(map(sorted, c.facets))
            if res.status:
                assert is_shelling(list(res.order))
            # no node: Reisner's test on the empty face answered alone
            seen.add((res.status, res.nodes > 0))
        assert seen == {(True, True), (False, False), (False, True)}

    # (budget, status, nodes): RP^2 passes Reisner's test on the empty face
    # over Q and the search refutes it; the bipyramid over a pentagon is a
    # 2-sphere, shelled in lexicographic order; of three tetrahedra only the
    # first and the last share a triangle, so every start is a dead end and
    # the prefix {0, 2}, reached again as {2, 0}, is answered by its memo
    @pytest.mark.parametrize(
        "c, runs",
        [
            (RP2, [(101, None, 102), (102, False, 102)]),
            (Complex.from_facets(7, [[i, i % 5 + 1, a] for i in range(1, 6) for a in (6, 7)]), [(9, None, 10), (10, True, 10)]),
            (Complex.from_facets(8, [[1, 2, 3, 8], [1, 2, 6, 7], [1, 3, 6, 8]]), [(4, None, 5), (5, False, 5)]),
        ],
        ids=["rp2", "bipyramid", "three-tetrahedra"],
    )
    def test_pinned_node_counts_at_small_budgets(self, c, runs):
        for budget, status, nodes in runs:
            res = is_shellable(c, node_budget=budget, field=Q)
            assert (res.status, res.nodes) == (status, nodes), budget


def enumerated_complexes():
    for n in range(1, 11):
        for s in connection_sets(n):
            yield f"C{n}{s}", independence_complex(circulant(n, s))
    for group in (NON_FLAG, GAPPED):
        for name, (c, _) in group.items():
            yield name, c
    yield "rp2", RP2
    yield "empty", Complex.from_facets(0, [[]])


class TestFaceEnumeration:
    """The one face enumerator behind ``faces``, the chain bases and the
    Reisner scan, against the downward closure of the facets."""

    def test_every_consumer_sees_the_downward_closure(self):
        for name, c in enumerated_complexes():
            closure = downward_closure(set(c.facets))
            assert faces(c) == closure, name
            ordered = sorted((tuple(sorted(f)) for f in closure), key=lambda t: (len(t), t))
            assert list(_sorted_faces(c)) == ordered, name
            bases = build_chain_complex(c).bases
            assert [t for i in sorted(bases) for t in bases[i]] == ordered, name


class TestReportAgainstBruteForce:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=small_circulants(), field=st.sampled_from(FIELDS))
    def test_full_report_matches_the_brute_oracles(self, spec, field):
        n, s = spec
        g = circulant(n, s)
        faces = brute_independent_sets(g)
        sizes = {len(m) for m in brute_maximal_independent_sets(g)}
        r = full_report(g, field, include_betti=True)

        assert r.fh.f == tuple(sum(len(f) == k for f in faces) for k in range(max(sizes) + 1))
        assert (r.alpha, r.well_covered) == (max(sizes), len(sizes) == 1)
        reisner, buchsbaum = brute_link_scan(faces)[field]
        assert (r.cm, r.cm_witness) == (reisner is None, reisner)
        if r.pure:
            assert (r.buchsbaum, r.buchsbaum_witness) == (buchsbaum is None, buchsbaum)
        else:
            assert not r.buchsbaum
        pdim = brute_pdim(faces, n, field)
        assert (r.pdim, r.depth) == (pdim, n - pdim)
        assert r.betti == brute_table(faces, field)

        assert (r.shellable is True) == (r.shelling_order is not None)
        if reisner is not None:
            assert r.shellable is False and not r.vertex_decomposable
        if r.shellable:
            order = [frozenset(f) for f in r.shelling_order]
            assert sorted(map(sorted, order)) == sorted(map(sorted, brute_maximal_independent_sets(g)))
            assert is_shelling(order)


def kozlov_path(m: int) -> dict[int, int]:
    """Ind(P_m): contractible for m = 3k+1, S^{k-1} for m = 3k-1 and 3k."""
    return {} if m % 3 == 1 else {(m + 1) // 3 - 1: 1}


def kozlov_cycle(m: int) -> dict[int, int]:
    """Ind(C_m): S^{k-1} v S^{k-1} for m = 3k, S^{k-1} for m = 3k +- 1."""
    k = (m + 1) // 3
    return {k - 1: 2 if m % 3 == 0 else 1}


class TestKozlovClosedForms:
    def test_paths(self):
        oracle = InducedHomology(circulant(21, [1]), FieldChoice.gf(2))
        for m in range(1, 21):
            assert oracle.betti((1 << m) - 1) == kozlov_path(m), m

    def test_cycles(self, monkeypatch):
        # Ind(C60(1)) has about 3.5 * 10^12 faces; a split leaves two paths
        monkeypatch.setattr(circm.homology, "reduced_betti", refuse_linear_algebra)
        for m in range(3, 61):
            oracle = InducedHomology(circulant(m, [1]), FieldChoice.gf(3))
            want = kozlov_cycle(m)
            assert oracle.betti(oracle.full) == want, m

    def test_a_path_longer_than_the_recursion_limit(self, monkeypatch):
        # folds settle the path one end at a time, on an explicit stack
        monkeypatch.setattr(circm.homology, "reduced_betti", refuse_linear_algebra)
        m = sys.getrecursionlimit() + 100
        oracle = InducedHomology(graph_from_edges(m, [(i, i + 1) for i in range(m - 1)]), Q)
        assert oracle.betti(oracle.full) == kozlov_path(m)

    def test_a_fold_free_graph_whose_split_fails_falls_back(self, monkeypatch):
        # C11(1, 2) is C_{4d+3}(1..d) for d = 2: no vertex of it folds, and
        # the split at its lowest vertex leaves H~_i nonzero on both sides
        g = circulant(11, [1, 2])
        opened = []
        real_split = InducedHomology._split

        def split(self, w):
            opened.append(w)
            return real_split(self, w)

        monkeypatch.setattr(InducedHomology, "_split", split)
        calls = count_betti_calls(monkeypatch)
        oracle = InducedHomology(g, Q)
        assert oracle._fold(oracle.full) == 0
        assert oracle.betti(oracle.full) == {i: b for i, b in reduced_betti(independence_complex(g), Q).by_dim if b}
        assert [c.facets for c in calls] == [independence_complex(g).facets]
        assert opened[0] == oracle.full and 1 < len(opened) < circm.homology.SPLIT_BUDGET

    def test_an_exhausted_budget_falls_back_with_the_same_answer(self, monkeypatch):
        want = {i: b for i, b in reduced_betti(independence_complex(circulant(16, [1])), Q).by_dim if b}
        monkeypatch.setattr(circm.homology, "SPLIT_BUDGET", 2)
        calls = count_betti_calls(monkeypatch)
        oracle = InducedHomology(circulant(16, [1]), Q)
        assert oracle.betti(oracle.full) == want == kozlov_cycle(16)
        assert len(calls) == 1


def refuse_linear_algebra(c, field):
    raise AssertionError(f"reduced_betti called on a complex of {c.vertex_count} vertices")


def count_betti_calls(monkeypatch) -> list:
    """Record the complex of every reduced_betti call, wherever it is made."""
    calls = []
    real = circm.homology.reduced_betti

    def counting(c, field):
        calls.append(c)
        return real(c, field)

    monkeypatch.setattr(circm.homology, "reduced_betti", counting)
    monkeypatch.setattr(circm.properties, "reduced_betti", counting)
    return calls


def enumerated_graph_sizes(run) -> list[int]:
    """Vertex counts of the graphs whose maximal independent sets
    ``run()`` enumerates, under whatever name the enumerator is imported."""
    code = circm.complexes._maximal_independent_sets.__code__
    sizes = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            sizes.append(frame.f_locals["g"].vertex_count)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return sizes


class TestSharedWork:
    def test_whole_complex_homology_once_per_report(self, monkeypatch):
        # Ind(C12(1,3,6)) is connected, Cohen-Macaulay and 2-dimensional, so
        # Reisner's empty face, the shelling pre-check and the Betti numbers
        # all ask for the homology of the whole complex
        g = circulant(12, [1, 3, 6])
        whole = independence_complex(g).facets
        calls = count_betti_calls(monkeypatch)
        r = full_report(g, pdim_guard=0, include_betti=True)
        assert r.cm and r.dim == 2 and r.shellable is True
        assert r.betti == {-1: 0, 0: 0, 1: 0, 2: 3}
        assert sum(c.facets == whole for c in calls) == 1

    def test_pdim_of_c14_1_needs_few_homology_computations(self, monkeypatch):
        # every induced subgraph of a cycle is a union of paths, or the
        # cycle itself: folds and splits settle them all
        calls = count_betti_calls(monkeypatch)
        assert projective_dimension(independence_complex(circulant(14, [1])), Q) == 9
        assert not calls

    def test_cubic_sweep_runs_no_linear_algebra(self, monkeypatch, capsys):
        from circm.cli import main

        calls = count_betti_calls(monkeypatch)
        assert main(["sweep", "--family", "cubic", "--max-2n", "18"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 36
        assert not calls

    def test_no_search_once_reisner_rejects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("search run on a complex Reisner rejected")

        monkeypatch.setattr(circm.properties, "_shedding_order", refuse)
        monkeypatch.setattr(circm.properties, "is_shellable", refuse)
        r = full_report(circulant(16, [1, 3, 4, 5, 7, 8]))
        assert r.cm_witness == ((), 0)
        assert (r.vertex_decomposable, r.shellable, r.pdim) == (False, False, 15)

    @pytest.mark.parametrize("n,s", [(12, (1, 3, 6)), (14, (1,)), (16, (1, 2)), (16, (8,))])
    def test_maximal_independent_sets_of_the_whole_graph_per_report(self, monkeypatch, n, s):
        # Ind(g) is built once: it gives alpha and the Krull dimension, and
        # it is the oracle's entry for the whole of a connected g
        sizes = []
        real = circm.complexes._maximal_independent_sets

        def counting(g):
            sizes.append(g.vertex_count)
            return real(g)

        monkeypatch.setattr(circm.complexes, "_maximal_independent_sets", counting)
        r = full_report(circulant(n, s))
        assert r.alpha == r.krull_dim == r.dim + 1
        assert sizes.count(n) == 1

    @pytest.mark.parametrize(
        "decider",
        [reisner_violation, projective_dimension, lambda c, field: is_shellable(c, field=field)],
        ids=["reisner", "pdim", "shellable"],
    )
    def test_standalone_decider_enumerates_the_whole_graph_once(self, decider):
        # the flag test is the oracle's own Ind(G), which is also its entry
        # for the whole of the connected graph
        c = independence_complex(circulant(12, [1, 3, 6]))
        assert enumerated_graph_sizes(lambda: decider(c, Q)).count(12) == 1

    @pytest.mark.parametrize(
        "n,s,calls_buchsbaum",
        [
            (16, (1, 3, 4, 5, 7, 8), True),  # pure, disconnected: witness ((), 0)
            (7, (1,), True),  # pure, witness ((), 1)
            (11, (1, 2), True),
            (8, (1,), False),  # impure
            (12, (1, 3, 6), False),  # Cohen-Macaulay
        ],
    )
    def test_report_calls_the_public_scans(self, monkeypatch, n, s, calls_buchsbaum):
        # Reisner stops at the empty face and Buchsbaum starts after it, so
        # Buchsbaum's scan runs only when Reisner's witness is the empty face
        calls = []
        for name in ("reisner_violation", "buchsbaum_violation"):
            real = getattr(circm.properties, name)

            def counting(c, field, real=real, name=name):
                calls.append(name)
                return real(c, field)

            monkeypatch.setattr(circm.properties, name, counting)
        r = full_report(circulant(n, s))
        assert calls_buchsbaum == (r.pure and r.cm_witness is not None and r.cm_witness[0] == ())
        assert calls == ["reisner_violation"] + ["buchsbaum_violation"] * calls_buchsbaum

    def test_answers_survive_a_memo_of_four_entries(self, monkeypatch):
        cases = {(14, (1,)): (9, ((), 4)), (12, (1, 3, 6)): (9, None), (11, (1, 2)): (9, ((), 1)), (12, (6,)): (6, None)}

        def answers(n, s):
            c = independence_complex(circulant(n, s))
            return projective_dimension(c, Q), reisner_violation(c, Q)

        assert {key: answers(*key) for key in cases} == cases
        sizes = []
        real = InducedHomology._store

        def store(self, mask, value):
            real(self, mask, value)
            sizes.append(len(self._memo))

        monkeypatch.setattr(circm.homology, "ORACLE_ENTRIES", 4)
        monkeypatch.setattr(InducedHomology, "_store", store)
        assert {key: answers(*key) for key in cases} == cases
        assert len(sizes) > 4 and max(sizes) == 4

    def test_vertex_decomposability_leaves_no_module_state(self):
        def sizes():
            return {k: len(v) for k, v in vars(circm.properties).items() if isinstance(v, (dict, list, set))}

        before = sizes()
        for n, s in [(5, [1]), (6, [2, 3]), (8, [1]), (9, [1, 2, 3])]:
            is_vertex_decomposable(independence_complex(circulant(n, s)))
        assert sizes() == before
        assert not hasattr(circm.properties, "_VD_CACHE")


class TestInvariantsAreNotAsserts:
    def test_bad_constructed_order_is_an_inconsistency(self, monkeypatch):
        monkeypatch.setattr(circm.properties, "check_shelling_order", lambda order: False)
        for c in (Complex.from_facets(3, [[1], [2], [3]]), Complex.from_facets(3, [[1, 2], [2, 3]])):
            with pytest.raises(InconsistencyError):
                is_shellable(c, field=Q)

    def test_verify_h2_still_records_a_violated_lower_bound(self, monkeypatch):
        import circm.theorems
        from circm import BettiTable, VerifyScope

        monkeypatch.setattr(circm.theorems, "reduced_betti", lambda c, f: BettiTable(((2, 0),)))
        res = circm.theorems.verify_h2(VerifyScope(h2_d_max=3))
        assert [f["d"] for f in res.failures] == [3]
        assert "lower bound violated" in res.failures[0]["error"]
