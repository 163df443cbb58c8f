"""The induced-subgraph homology oracle and the deciders that use it,
checked against dense brute-force homology, brute link scans, Hochster's
formula by subset enumeration, and Kozlov's closed forms for paths and
cycles."""

import math
import random
import sys
from functools import reduce
from itertools import combinations, permutations
from operator import or_

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
from circm.complexes import FHVectors, _face_levels, _mask, _masks, _vertices, f_vector, faces
from circm.graphs import connected_components, induced_subgraph
from circm.homology import InducedHomology, _betti_by_ranks, build_chain_complex
from circm.properties import _oracle, _order_by_shedding, _shedding, _sorted_faces, _verified, _violations, buchsbaum_violation, check_shelling_order

from conftest import (
    brute_independent_sets,
    brute_maximal_independent_sets,
    brute_reduced_betti,
    brute_vertex_decomposable,
    downward_closure,
    euler_check,
    graph_from_edges,
)
from test_homology import RP2, TORUS7

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


def shedding_order(c: Complex):
    """The shelling order, as vertex sets, that the first shedding vertices
    of c give when c is vertex decomposable, else None."""
    memo: dict = {}
    facets = frozenset(map(_mask, c.facets))
    if not c.is_pure() or _shedding(facets, memo) is None:
        return None
    return [frozenset(_vertices(m)) for m in _order_by_shedding((facets,), memo)]


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

    @staticmethod
    def dihedral_minimum(mask: int, n: int) -> int:
        """The least of the n rotations of the n-bit string of ``mask`` and
        of its reverse, read back as an int: the key of a circulant."""
        bits = format(mask, f"0{n}b")
        return min(int(b[r:] + b[:r], 2) for b in (bits, bits[::-1]) for r in range(n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_circulant_key_is_the_dihedral_minimum_on_every_mask(self, n):
        oracle = InducedHomology(circulant(n, [1] if n > 1 else []), Q)
        assert len(oracle._rotations) == n
        assert [oracle._key(m) for m in range(1 << n)] == [self.dihedral_minimum(m, n) for m in range(1 << n)]

    def test_circulant_key_is_the_dihedral_minimum_on_random_and_periodic_masks(self):
        rng = random.Random(33)
        for n in range(13, 41):
            oracle = InducedHomology(circulant(n, [1, n // 3]), Q)
            full = (1 << n) - 1
            masks = [0, full, full ^ 1, 1, 1 << (n - 1)]
            masks += [int((pattern * n)[:n], 2) for pattern in ("01", "10", "0011", "001", "110", "0001011")]  # periodic where n allows
            masks += [sum(1 << i for i in range(n) if rng.random() < p) for p in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(20)]
            for m in masks:
                assert oracle._key(m) == self.dihedral_minimum(m, n), (n, bin(m))

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
    unlike circulants they are not vertex-transitive, so folds and splits
    at dominating vertices occur in them."""
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
                assert list(_violations(*_oracle(c, field), _sorted_faces(_masks(c)), field)) == failing, (g.adj, str(field))
                assert reisner_violation(c, field) == scan[field][0], (g.adj, str(field))
                assert projective_dimension(c, field) == brute_pdim(faces, n, field), (g.adj, str(field))

    def test_folds_splits_and_fallbacks_all_occur(self, monkeypatch):
        # over every mask of the ten-vertex graphs and of C11(1, 2), whose
        # whole complex is the only one of them that needs linear algebra,
        # components are settled by a fold, by a split at a dominating
        # vertex, by a decided split at the lowest vertex, and by linear
        # algebra after an undecided split
        settled = []
        real = InducedHomology._split

        def split(self, w):
            fold, dominating = self._fold(w)
            betti = yield from real(self, w)
            settled.append("fold" if fold else "dominated split" if dominating else "split" if betti is not None else "undecided")
            return betti

        monkeypatch.setattr(InducedHomology, "_split", split)
        calls = count_betti_calls(monkeypatch)
        for g in random_graphs(10) + [circulant(11, [1, 2])]:
            oracle = InducedHomology(g, Q)
            for mask in range(1 << g.vertex_count):
                oracle.betti(mask)
        assert set(settled) == {"fold", "dominated split", "split", "undecided"}
        assert 0 < len(calls) <= settled.count("undecided")


class TestEulerCharacteristic:
    """euler_check compares the oracle's Betti numbers with the f-vector,
    a count that shares nothing with the folds, splits or rank kernel."""

    def test_every_small_circulant_and_random_graph(self, monkeypatch):
        dominated = []
        real = InducedHomology._fold

        def fold(self, w):
            found = real(self, w)
            dominated.append(found[1])  # nonzero only where no vertex folds
            return found

        monkeypatch.setattr(InducedHomology, "_fold", fold)
        graphs = [circulant(n, s) for n in range(1, 15) for s in connection_sets(n)]
        graphs += [g for n in range(8, 11) for g in random_graphs(n)]
        for g in graphs:
            c = independence_complex(g)
            for field in (Q, FieldChoice.gf(2)):
                assert euler_check(c, field), (g.adj, str(field))
        assert any(dominated)


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
        assert _oracle(c, Q)[1][0] is None
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
        assert _oracle(RP2, Q)[1][0] is None

    def test_independence_complexes_are_flag(self):
        c = Complex.from_facets(5, [[1, 2, 3], [3, 4, 5]])
        oracle = _oracle(c, Q)[1][0]
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


# Complexes on labels with gaps, which the vertex decomposition search's
# memo keys keep, since they only shift a family down to vertex 1, with
# their vertex decomposability
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
        order = shedding_order(c)
        assert (order is not None) is vd
        if vd:
            assert sorted(map(sorted, order)) == sorted(map(sorted, c.facets)) and check_shelling_order(order)

    def test_random_pure_complexes(self):
        # 0- to 2-dimensional, up to 7 facets on up to 8 vertices, each
        # inside one of two parts of the vertices: many are disconnected,
        # which the search answers without seeking a shedding vertex.  The
        # search's memo keys a family shifted to vertex 1, so each complex
        # shifted up by a few vertices must give the same answer and the
        # order shifted by as many
        rng, shifts = random.Random(16), random.Random(28)
        for _ in range(500):
            n, k = rng.randint(1, 8), rng.randint(1, 3)
            vs, cut = rng.sample(range(1, n + 1), n), rng.randint(0, n - 1)
            pool = [f for part in (vs[:cut], vs[cut:]) for f in combinations(sorted(part), k)]
            if not pool:
                continue
            c = Complex.from_facets(n, rng.sample(pool, rng.randint(1, min(7, len(pool)))))
            vd = brute_vertex_decomposable(c.facets)
            assert is_vertex_decomposable(c) is vd, c.facets
            order = shedding_order(c)
            assert (order is not None) is vd, c.facets
            if vd:
                assert sorted(map(sorted, order)) == sorted(map(sorted, c.facets)) and check_shelling_order(order)
            shift = shifts.randint(1, 9)
            moved = Complex.from_facets(n + shift, [[v + shift for v in f] for f in c.facets])
            assert is_vertex_decomposable(moved) is vd, (c.facets, shift)
            assert shedding_order(moved) == (None if order is None else [frozenset(v + shift for v in f) for f in order]), (c.facets, shift)

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
        tried = []
        real = circm.properties._link_and_deletion

        def counted(facets, x):
            tried.append(x)
            return real(facets, x)

        monkeypatch.setattr(circm.properties, "_link_and_deletion", counted)
        assert is_vertex_decomposable(c) is brute_vertex_decomposable(c.facets) is vd
        # points are vertex decomposable whether connected or not, and only
        # the search finds that out
        assert bool(tried) is vd

    def test_rp2_and_the_empty_complex(self):
        assert is_vertex_decomposable(RP2) is brute_vertex_decomposable(RP2.facets) is False
        empty = Complex.from_facets(0, [[]])
        assert is_vertex_decomposable(empty) is brute_vertex_decomposable(empty.facets) is True
        assert shedding_order(empty) == [frozenset()]


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

    def test_the_count_agrees_with_the_pairwise_test_on_random_pure_orders(self):
        # most facets are an earlier one with a vertex swapped, so that many
        # shuffled orders are shellings (14,281 of the 20,000); one in five
        # orders holds a facet twice, which no shelling does.  Each order is
        # counted against the face counts of the complex of its own facets.
        rng = random.Random(27)
        seen = set()
        for _ in range(20_000):
            n = rng.randint(2, 7)
            size = rng.randint(1, min(4, n - 1))
            facets = [frozenset(rng.sample(range(1, n + 1), size))]
            for _ in range(rng.randint(0, 6)):
                facet = rng.choice(facets)
                if rng.random() < 0.8:
                    facet = facet - {rng.choice(sorted(facet))} | {rng.choice([v for v in range(1, n + 1) if v not in facet])}
                else:
                    facet = frozenset(rng.sample(range(1, n + 1), size))
                if facet not in facets:
                    facets.append(facet)
            order = rng.sample(facets, len(facets))
            if rng.random() < 0.2:
                order.insert(rng.randint(0, len(order)), rng.choice(facets))
            want = is_shelling(order)
            assert check_shelling_order(order) is want, order
            try:
                _verified(list(map(_mask, order)), f_vector(Complex(n, frozenset(order))).f)
            except InconsistencyError:
                counted = False
            else:
                counted = True
            assert counted is want, order
            seen.add((want, len(set(order)) < len(order)))
        assert seen == {(True, False), (False, False), (False, True)}

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
            assert list(map(_vertices, _sorted_faces(_masks(c)))) == ordered, name
            bases = build_chain_complex(c).bases
            assert [t for i in sorted(bases) for t in bases[i]] == ordered, name

    def test_a_walk_through_a_vertex_is_the_full_walk_cut_to_it(self):
        # seeded random complexes on at most 8 vertices, flag ones of random
        # graphs and others of random facets, some with a vertex in no face:
        # the full walk is in order of size, then of vertex tuple, and with
        # a vertex v, the empty face is followed by exactly the faces whose
        # least vertex is v, in that order
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 8)
            flag = independence_complex(graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4]))
            other = Complex.from_facets(n, [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(1, 5))], reduce=True)
            for c in (flag, other):
                full = [m for level in _face_levels(_masks(c)) for m in level]
                assert full == sorted(full, key=lambda m: (m.bit_count(), _vertices(m))), c.facets
                for v in range(1, n + 1):
                    levels = list(_face_levels(_masks(c), v))
                    assert levels[0] == [0] and all(levels), (c.facets, v)
                    assert [m for level in levels[1:] for m in level] == [m for m in full if m & -m == 1 << (v - 1)], (c.facets, v)


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
        monkeypatch.setattr(circm.homology, "_betti_by_ranks", refuse_linear_algebra)
        for m in range(3, 61):
            oracle = InducedHomology(circulant(m, [1]), FieldChoice.gf(3))
            want = kozlov_cycle(m)
            assert oracle.betti(oracle.full) == want, m

    def test_a_path_longer_than_the_recursion_limit(self, monkeypatch):
        # folds settle the path one end at a time, on an explicit stack
        monkeypatch.setattr(circm.homology, "_betti_by_ranks", refuse_linear_algebra)
        m = sys.getrecursionlimit() + 100
        oracle = InducedHomology(graph_from_edges(m, [(i, i + 1) for i in range(m - 1)]), Q)
        assert oracle.betti(oracle.full) == kozlov_path(m)

    def test_a_fold_free_graph_whose_split_fails_falls_back(self, monkeypatch):
        # C11(1, 2) is C_{4d+3}(1..d) for d = 2: no vertex of it folds or
        # dominates another, and the split at its lowest vertex leaves H~_i
        # nonzero on both sides
        g = circulant(11, [1, 2])
        opened = []
        real_split = InducedHomology._split

        def split(self, w):
            opened.append(w)
            return real_split(self, w)

        monkeypatch.setattr(InducedHomology, "_split", split)
        calls = count_betti_calls(monkeypatch)
        oracle = InducedHomology(g, Q)
        assert oracle._fold(oracle.full) == (0, 0)
        assert oracle.betti(oracle.full) == {i: b for i, b in _betti_by_ranks(_masks(independence_complex(g)), Q).by_dim if b}
        assert calls == [_masks(independence_complex(g))]
        assert opened[0] == oracle.full and 1 < len(opened) < circm.homology.SPLIT_BUDGET
        # the given-up component's answer is in the memo
        assert oracle.betti(oracle.full) == {i: b for i, b in _betti_by_ranks(_masks(independence_complex(g)), Q).by_dim if b}
        assert len(calls) == 1

    def test_a_bowtie_is_decided_only_by_a_dominated_split(self, monkeypatch):
        # two triangles a-b-c and c-d-e sharing c, a the lowest vertex: no
        # vertex folds, and the split at a leaves H~_0 on both sides (a point
        # beside the path d-b-e, and the two points d, e); N[a] = N[b], so the
        # split at b decides it: a 4-cycle beside a point
        monkeypatch.setattr(circm.homology, "_betti_by_ranks", refuse_linear_algebra)
        a, b, c, d, e = range(5)
        g = graph_from_edges(5, [(a, b), (a, c), (b, c), (c, d), (c, e), (d, e)])
        oracle = InducedHomology(g, Q)
        assert oracle._fold(oracle.full) == (0, 1 << b)
        assert oracle.betti(oracle.full ^ 1 << a) == oracle.betti(1 << d | 1 << e) == {0: 1}
        want = brute_table({as_face(i) for i in independent_masks(g.adj)}, Q)
        assert oracle.betti(oracle.full) == {i: x for i, x in want.items() if x} == {0: 1, 1: 1}

    @pytest.mark.parametrize("budget, linear_algebra", [(10, 0), (9, 1)])
    def test_the_split_budget_restarts_for_each_component(self, monkeypatch, budget, linear_algebra):
        # a 9-vertex arc with edges |i - j| <= 2 and a 12-vertex path: the
        # arc's attempt opens ten components and the path's eight, so only
        # a budget counted afresh for each component settles both
        arc = [(i, j) for i in range(9) for j in range(i + 1, min(i + 3, 9))]
        path = [(i, i + 1) for i in range(10, 21)]
        oracle = InducedHomology(graph_from_edges(22, arc + path), Q)
        monkeypatch.setattr(circm.homology, "SPLIT_BUDGET", budget)
        calls = count_betti_calls(monkeypatch)
        assert oracle.betti(oracle.full & ~(1 << 9)) == {5: 3}
        assert [_vertices(reduce(or_, facets)) for facets in calls] == [tuple(range(1, 10))] * linear_algebra  # the arc

    def test_an_exhausted_budget_falls_back_with_the_same_answer(self, monkeypatch):
        want = {i: b for i, b in _betti_by_ranks(_masks(independence_complex(circulant(16, [1]))), Q).by_dim if b}
        monkeypatch.setattr(circm.homology, "SPLIT_BUDGET", 2)
        calls = count_betti_calls(monkeypatch)
        oracle = InducedHomology(circulant(16, [1]), Q)
        assert oracle.betti(oracle.full) == want == kozlov_cycle(16)
        assert len(calls) == 1


class TestReducedBettiRouting:
    """The public reduced_betti answers a flag complex through its oracle
    and any other complex through the rank kernel, with the same answer."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_every_small_circulant_matches_the_rank_kernel(self, field):
        for n in range(1, 13):
            for s in connection_sets(n):
                c = independence_complex(circulant(n, s))
                assert reduced_betti(c, field).by_dim == _betti_by_ranks(_masks(c), field).by_dim, (n, s)

    @pytest.mark.parametrize("n,s", [(17, [1]), (18, [1]), (19, [1]), (20, [1]), (16, [8]), (22, [1, 2])])
    def test_folds_and_splits_settle_these_without_the_kernel(self, monkeypatch, n, s):
        # Ind(C22(1, 2)) needs the splits at dominating vertices of its pieces
        calls = count_betti_calls(monkeypatch)
        betti = reduced_betti(independence_complex(circulant(n, s)), FieldChoice.gf(32003))
        assert not calls
        assert {i: b for i, b in betti.by_dim if b} == (kozlov_cycle(n) if s == [1] else {16: {7: 1}, 22: {4: 43}}[n])

    def test_an_undecided_split_reaches_the_kernel_once(self, monkeypatch):
        # C16(1, 2): a split of some piece leaves homology on both sides, so
        # the whole complex goes to the kernel, and it is the complex asked about
        c = independence_complex(circulant(16, [1, 2]))
        calls = count_betti_calls(monkeypatch)
        assert {i: b for i, b in reduced_betti(c, Q).by_dim if b} == {3: 5}
        assert calls == [_masks(c)]

    @pytest.mark.parametrize(
        "c",
        [
            RP2,
            TORUS7,
            Complex.from_facets(4, HOLLOW_TRIANGLE),
            independence_complex(induced_subgraph(circulant(7, [1]), [2, 3, 5, 6])),
        ],
        ids=["rp2", "torus7", "uncovered-vertex", "ind-with-uncovered-labels"],
    )
    def test_complexes_that_are_not_flag_go_to_the_kernel_once(self, monkeypatch, c):
        want = {str(field): _betti_by_ranks(_masks(c), field).by_dim for field in FIELDS}
        calls = count_betti_calls(monkeypatch)
        for field in FIELDS:
            assert reduced_betti(c, field).by_dim == want[str(field)], str(field)
        assert calls == [_masks(c)] * len(FIELDS)


def refuse_linear_algebra(facets, field):
    raise AssertionError(f"the rank kernel called on a complex of {len(facets)} facets")


def count_betti_calls(monkeypatch) -> list:
    """Record the facet masks of every call of the rank kernel, wherever it is made."""
    calls = []
    real = circm.homology._betti_by_ranks

    def counting(facets, field):
        calls.append(facets)
        return real(facets, field)

    monkeypatch.setattr(circm.homology, "_betti_by_ranks", counting)
    monkeypatch.setattr(circm.properties, "_betti_by_ranks", counting)
    return calls


def record_scans(monkeypatch) -> list[list[tuple[int, ...]]]:
    """Record, for each call of the link scan ``_violations``, the
    candidate faces it draws, as it draws them, each decoded from its
    mask into a sorted vertex tuple."""
    scans = []
    real = circm.properties._violations

    def recording(facets, view, candidates, field):
        drawn = []
        scans.append(drawn)
        return real(facets, view, (drawn.append(_vertices(face)) or face for face in candidates), field)

    monkeypatch.setattr(circm.properties, "_violations", recording)
    return scans


def assert_whole_graph_enumerations(g):
    """Report on g and check that the maximal independent sets of g as a
    whole are enumerated once, or never for a disconnected g whose report
    is Cohen-Macaulay and vertex decomposable; return the report."""
    reports = []
    sizes = enumerated_graph_sizes(lambda: reports.append(full_report(g)))
    (r,) = reports
    decided_by_components = len(connected_components(g)) > 1 and r.cm and r.vertex_decomposable
    assert sizes.count(g.vertex_count) == (0 if decided_by_components else 1)
    return r


def c16_beside_a_vertex() -> Graph:
    """C16(1,4,8) and an isolated vertex 17: Cohen-Macaulay and not
    vertex decomposable, so the shelling search runs on the join."""
    edges = [(i, j) for i in range(16) for j in range(i + 1, 16) if circulant(16, [1, 4, 8]).adj[i] >> j & 1]
    return graph_from_edges(17, edges)


def constructed_oracles(monkeypatch) -> list[InducedHomology]:
    """Every InducedHomology constructed from now on, with its memo."""
    oracles = []
    real = InducedHomology.__init__

    def init(self, g, field):
        real(self, g, field)
        oracles.append(self)

    monkeypatch.setattr(InducedHomology, "__init__", init)
    return oracles


def enumerated_graph_sizes(run) -> list[int]:
    """Vertex counts of the graphs g[mask] whose maximal independent sets
    ``run()`` enumerates, under whatever name the enumerator is imported."""
    code = circm.complexes._maximal_independent_sets.__code__
    sizes = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            mask = frame.f_locals["mask"]
            sizes.append(frame.f_locals["g"].vertex_count if mask is None else mask.bit_count())

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
        whole = _masks(independence_complex(g))
        calls = count_betti_calls(monkeypatch)
        r = full_report(g, pdim_guard=0, include_betti=True)
        assert r.cm and r.dim == 2 and r.shellable is True
        assert r.betti == {-1: 0, 0: 0, 1: 0, 2: 3}
        assert calls.count(whole) == 1

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

        monkeypatch.setattr(circm.properties, "_shedding", refuse)
        monkeypatch.setattr(circm.properties, "_shelling_search", refuse)
        r = full_report(circulant(16, [1, 3, 4, 5, 7, 8]))
        assert r.cm_witness == ((), 0)
        assert (r.vertex_decomposable, r.shellable, r.pdim) == (False, False, 15)

    @pytest.mark.parametrize("n,s", [(12, (1, 3, 6)), (14, (1,)), (16, (1, 2)), (16, (8,)), (12, (4, 6)), (12, (2,))])
    def test_maximal_independent_sets_of_the_whole_graph_per_report(self, n, s):
        # A connected g has Ind(g) built once: it gives the facets the scans
        # and searches read, and it is the oracle's entry for the whole of
        # g.  A disconnected g is decided on its components, and Ind(g) is
        # built once only when the join is scanned or searched whole:
        # C12(2), two hexagons, is not Cohen-Macaulay, while C16(8) and
        # C12(4,6) are Cohen-Macaulay and vertex decomposable.
        assert_whole_graph_enumerations(circulant(n, s))

    def test_maximal_independent_sets_of_a_join_searched_whole(self):
        # C16(1,4,8) beside an isolated vertex is Cohen-Macaulay but not
        # vertex decomposable, so the shelling search runs on the join;
        # C4(2)[C3(1)], two disjoint K2[C3(1)], needs no search
        assert not assert_whole_graph_enumerations(c16_beside_a_vertex()).vertex_decomposable
        assert assert_whole_graph_enumerations(lex_product(circulant(4, [2]), circulant(3, [1]))).vertex_decomposable

    @pytest.mark.parametrize("n,s,runs", [(24, (6, 12), 6), (18, (6, 9), 3), (10, (1, 4, 5), 1)])
    def test_maximal_independent_sets_per_vertex_decomposable_report(self, n, s, runs):
        # a join enumerates each copy once, and the copy it decides gives
        # the same facets to its factor of the order: six K4 in C24(6,12),
        # three triangular prisms in C18(6,9); a connected graph's only
        # factor is Ind(G)'s own facets
        reports = []
        assert len(enumerated_graph_sizes(lambda: reports.append(full_report(circulant(n, s))))) == runs
        assert reports[0].vertex_decomposable

    @pytest.mark.parametrize(
        "g,searched",
        [
            (circulant(24, [6, 12]), 5),
            (circulant(18, [6, 9]), 8),
            (circulant(16, [4, 8]), 5),
            (circulant(12, [6]), 3),
            (circulant(10, [1, 4, 5]), 15),
            (lex_product(circulant(2, []), circulant(10, [1, 4, 5])), 15),
        ],
        ids=["C24(6,12)", "C18(6,9)", "C16(4,8)", "C12(6)", "C10(1,4,5)", "C2()[C10(1,4,5)]"],
    )
    def test_one_search_memo_decides_the_components_and_orders_the_join(self, monkeypatch, g, searched):
        # the memo that decided the components is the one the order is
        # built from, so no facet family is searched twice in a report; it
        # is keyed on each family shifted to vertex 1, so the copies of a
        # component, translates of each other, share their entries: the
        # second copy of C10(1,4,5) in C2()[C10(1,4,5)] adds none
        memos, orders = [], []
        real_shedding, real_order = circm.properties._shedding, circm.properties._order_by_shedding

        def shedding(facets, memo):
            memos.append(memo)
            return real_shedding(facets, memo)

        def order(factors, memo):
            orders.append((memo, len(memo)))
            return real_order(factors, memo)

        monkeypatch.setattr(circm.properties, "_shedding", shedding)
        monkeypatch.setattr(circm.properties, "_order_by_shedding", order)
        assert full_report(g, pdim_guard=0).vertex_decomposable
        ((memo, size),) = orders
        assert size > 0 and all(m is memo for m in memos)
        assert len(memo) == size == searched

    @pytest.mark.parametrize(
        "g",
        [circulant(14, [1]), circulant(24, [6, 12]), circulant(24, [10, 12]), c16_beside_a_vertex(), lex_product(circulant(4, []), circulant(5, [1]))],
        ids=["C14(1)", "C24(6,12)", "C24(10,12)", "C16(1,4,8)+K1", "C4()[C5(1)]"],
    )
    def test_one_oracle_per_report(self, monkeypatch, g):
        # connected, Cohen-Macaulay join, join scanned whole, join searched
        # whole, join of copies of one cycle: the components, the join and
        # its Betti numbers all ask the one oracle on the report's graph
        oracles = constructed_oracles(monkeypatch)
        full_report(g, include_betti=True)
        assert len(oracles) == 1

    @pytest.mark.parametrize("n,s,classes", [(24, (10, 12), 13), (20, (8, 10), 11), (16, (2, 8), 7)])
    def test_no_component_class_is_computed_twice_in_a_report(self, monkeypatch, n, s, classes):
        # two copies of one component, not Cohen-Macaulay, so the join is
        # scanned whole after the copy is decided: each class of components
        # the scan meets is one the copy's scan stored already, or new
        oracles = constructed_oracles(monkeypatch)
        stores = []
        real = InducedHomology._store

        def store(self, mask, value):
            stores.append(mask)
            real(self, mask, value)

        monkeypatch.setattr(InducedHomology, "_store", store)
        r = full_report(circulant(n, s), include_betti=True)
        assert not r.cm and len(connected_components(circulant(n, s))) == 2
        (oracle,) = oracles
        assert len(stores) == len(oracle._memo) == classes

    @pytest.mark.parametrize("n,s", [(14, (1,)), (16, (1, 2)), (24, (6, 12))])
    def test_every_oracle_memo_entry_is_its_own_key(self, monkeypatch, n, s):
        # a component is stored once, under its least image by the graph's
        # rotations and reflections, and never under its own mask as well
        oracles = constructed_oracles(monkeypatch)
        full_report(circulant(n, s), pdim_guard=None, include_betti=True)
        assert any(o._memo for o in oracles)
        assert all(o._key(k) == k for o in oracles for k in o._memo)

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
        # Buchsbaum's witness is the first violation past the empty face,
        # so where Reisner's witness is the empty face the one walk of the
        # scan behind the public calls goes on for Buchsbaum's: no second
        # scan starts over
        scans = record_scans(monkeypatch)
        r = full_report(circulant(n, s))
        assert calls_buchsbaum == (r.pure and r.cm_witness is not None and r.cm_witness[0] == ())
        assert ["reisner" if scan[:1] == [()] else "buchsbaum" for scan in scans] == ["reisner"]

    def test_a_search_after_reisner_tests_no_face_again(self, monkeypatch):
        # Ind(C17(1,3,8)) is Cohen-Macaulay and not vertex decomposable, so
        # the budgeted search shells its 85 facets; Reisner's scan passed
        # the empty face already, so the search does not test it again
        scans = record_scans(monkeypatch)
        r = full_report(circulant(17, [1, 3, 8]), pdim_guard=0)
        assert (r.cm, r.vertex_decomposable, r.shellable) == (True, False, True)
        assert r.fh.f == (1, 17, 85, 153, 85)
        assert len(r.shelling_order) == 85 and check_shelling_order(map(frozenset, r.shelling_order))
        assert sum(scan.count(()) for scan in scans) == 1

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

    def test_a_report_builds_no_complex_and_no_graph(self, monkeypatch):
        # C2()[C16(1,2)] is two copies of C16(1,2), not Cohen-Macaulay, so
        # the join is scanned whole, and a split of Ind(C16(1,2)) stays
        # undecided, so the oracle falls back on the rank kernel: both read
        # facet masks, and the labels of a lex product already ascend, so
        # the report reads the graph itself
        g = lex_product(circulant(2, []), circulant(16, [1, 2]))
        built = constructions(monkeypatch)
        calls = count_betti_calls(monkeypatch)
        r = full_report(g, pdim_guard=None, include_betti=True)
        assert (r.cm, r.betti[7], len(calls)) == (False, 25, 1)
        assert (built.count(Complex), built.count(Graph)) == (0, 0)

    def test_a_report_on_shuffled_labels_builds_one_graph(self, monkeypatch):
        # the report reads the graph in increasing label order, one
        # induced subgraph, and answers as on that sorted relabelling
        rng = random.Random(7)
        for n, s in [(9, [1, 3]), (10, [2, 5]), (12, [1, 3, 6]), (11, [1, 2])]:
            g = circulant(n, s)
            labels = list(g.labels)
            rng.shuffle(labels)
            shuffled = Graph(adj=g.adj, labels=tuple(labels))
            built = constructions(monkeypatch)
            r = full_report(shuffled, pdim_guard=None, include_betti=True)
            assert built.count(Graph) == 1
            monkeypatch.undo()
            want = full_report(induced_subgraph(shuffled, sorted(labels)), pdim_guard=None, include_betti=True)
            assert r.to_json_dict() == want.to_json_dict(), (n, s)

    def test_deciders_on_a_complex_that_is_not_flag_build_no_link(self, monkeypatch):
        # every link of RP^2 goes to the rank kernel as its facet masks
        built = constructions(monkeypatch)
        for field, pdim in ((Q, 3), (FieldChoice.gf(2), 4)):
            assert reisner_violation(RP2, field) == (None if field == Q else ((), 1))
            assert projective_dimension(RP2, field) == pdim
        assert built.count(Complex) == 0


def constructions(monkeypatch) -> list[type]:
    """The class of every ``Complex`` and ``Graph`` constructed from now on."""
    built = []
    for cls in (Complex, Graph):
        real = cls.__init__

        def init(self, *args, _real=real, _cls=cls, **kwargs):
            built.append(_cls)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return built


class TestInvariantsAreNotAsserts:
    def test_bad_constructed_order_is_an_inconsistency(self, monkeypatch):
        # the face counts the order is held to, corrupted: one face too
        # many, or as many faces with a vertex counted as the empty face, so
        # that only the h-vector tells
        real = circm.properties.f_vector
        for corrupt in (lambda f: (*f[:-1], f[-1] + 1), lambda f: (f[0] + 1, f[1] - 1, *f[2:])):
            monkeypatch.setattr(circm.properties, "f_vector", lambda c: FHVectors(real(c).dim, corrupt(real(c).f), real(c).h))
            for c in (Complex.from_facets(3, [[1], [2], [3]]), Complex.from_facets(3, [[1, 2], [2, 3]])):
                with pytest.raises(InconsistencyError):
                    is_shellable(c, field=Q)

    def test_verify_h2_still_records_a_violated_lower_bound(self, monkeypatch):
        import circm.theorems
        from circm import VerifyScope

        real = circm.theorems.full_report

        def no_h2(g, **kwargs):  # a report that finds H~_2 = 0 on every graph
            report = real(g, **kwargs)
            report.betti = {**report.betti, 2: 0}
            return report

        monkeypatch.setattr(circm.theorems, "full_report", no_h2)
        res = circm.theorems.verify_h2(VerifyScope(h2_d_max=3))
        assert [f["d"] for f in res.failures] == [3]
        assert "lower bound violated" in res.failures[0]["error"]


def random_complexes(count: int, seed: int) -> list[Complex]:
    """Seeded complexes on 1-7 vertices, from up to four random facets: a
    vertex that none of them holds is a vertex in no face."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        facets = [[v for v in range(1, n + 1) if rng.random() < 0.5] for _ in range(rng.randint(1, 4))]
        out.append(Complex.from_facets(n, facets, reduce=True))
    return out


class TestDepthFromTheLinkScan:
    """pdim = n - depth, the depth read off Reisner's link scan, against
    Hochster's formula over every vertex subset (``brute_pdim``)."""

    @pytest.mark.parametrize("n,facets", [(1, [[]]), (2, [[2]]), (5, [[1, 2, 4, 5]])])
    def test_a_vertex_in_no_face_is_a_variable(self, n, facets):
        # k[x1, x2]/(x1) for (2, [[2]]): the restriction to a set of such
        # vertices is {∅}, whose H~_{-1} adds one more than its size less one
        c = Complex.from_facets(n, facets)
        faces = downward_closure(set(c.facets))
        for field in (Q, FieldChoice.gf(2)):
            assert projective_dimension(c, field) == brute_pdim(faces, n, field) == 1, str(field)

    def test_random_complexes_match_hochster(self):
        complexes = random_complexes(300, 26)
        ghosts = [c for c in complexes if frozenset().union(*c.facets) != frozenset(range(1, c.vertex_count + 1))]
        assert len(ghosts) > 50
        for c in complexes:
            faces = downward_closure(set(c.facets))
            for field in (Q, FieldChoice.gf(2)):
                assert projective_dimension(c, field) == brute_pdim(faces, c.vertex_count, field), (c.vertex_count, sorted(map(sorted, c.facets)), str(field))

    def test_cycles_above_the_guard(self):
        # Jacques: pdim of the cycle's independence complex is ceil((2n - 1)/3);
        # past Reisner's witness at the empty face the scan stops at the
        # depth found so far
        for n in range(3, 21):
            c = independence_complex(circulant(n, [1]))
            assert projective_dimension(c, Q, max_vertices=None) == math.ceil((2 * n - 1) / 3), n

    def test_the_scan_of_a_cycle_stops_at_its_depth(self, monkeypatch):
        # Ind(C14(1)) is S^4 and 6-dimensional: Reisner's witness ((), 4)
        # gives depth 5 at most, so no face of four vertices is drawn; every
        # rotation is an automorphism, so of the faces below only the empty
        # face and the 1 + 11 + 45 through vertex 1 are, in one scan
        scans = record_scans(monkeypatch)
        r = full_report(circulant(14, [1]))
        assert (r.cm_witness, r.depth, r.pdim) == (((), 4), 5, 9)
        assert [(len(scan), max(map(len, scan))) for scan in scans] == [(58, 3)]

    def test_a_cohen_macaulay_scan_is_reisners(self, monkeypatch):
        # no violation, so the depth is dim + 1 from the one scan of the
        # empty face and {1}: the complex is 2-dimensional, so the scan
        # stops below the ridges, and {1} meets every rotation orbit of the
        # other 11 vertices
        scans = record_scans(monkeypatch)
        r = full_report(circulant(12, [1, 3, 6]))
        assert (r.cm, r.dim, r.depth, r.pdim) == (True, 2, 3, 9)
        assert sum(r.fh.f) == 77 and scans == [[(), (1,)]]


def full_walk(facets: frozenset[int], view: tuple, field: FieldChoice) -> tuple:
    """(Reisner's witness, Buchsbaum's witness, depth) of the complex of
    the ``_mask`` facets from ``_violations`` on ``view`` over every face
    in scan order: no face is left out for its size or its orbit.
    Buchsbaum's witness is None for an impure complex."""
    found = list(_violations(facets, view, _sorted_faces(facets), field))
    sizes = {f.bit_count() for f in facets}
    buchsbaum = next((v for v in found if v[0]), None) if len(sizes) == 1 else None
    return (found[0] if found else None), buchsbaum, min([min(sizes)] + [len(face) + 1 + i for face, i in found])


class TestOneFacePerOrbit:
    """Where the rotations that fix a scanned mask are transitive on it,
    the scan draws only the faces through its least vertex; the report's
    witnesses and depth, and the public deciders', must still be those of
    the full walk (``full_walk``), over Q and GF(2)."""

    @staticmethod
    def assert_the_full_walks(g: Graph) -> None:
        c = independence_complex(g)
        for field in (Q, FieldChoice.gf(2)):
            reisner, buchsbaum, depth = full_walk(*_oracle(c, field), field)
            r = full_report(g, field, pdim_guard=None)
            assert (r.cm_witness, r.buchsbaum_witness, r.depth) == (reisner, buchsbaum, depth), (g.adj, str(field))
            assert reisner_violation(c, field) == reisner, (g.adj, str(field))
            if c.is_pure():
                assert buchsbaum_violation(c, field) == buchsbaum, (g.adj, str(field))
            assert projective_dimension(c, field, max_vertices=None) == g.vertex_count - depth, (g.adj, str(field))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_every_circulant(self, n):
        for s in connection_sets(n):
            self.assert_the_full_walks(circulant(n, s))

    def test_random_graphs(self):
        rng = random.Random(2027)
        for _ in range(200):
            n = rng.randint(1, 10)
            p = rng.random()
            self.assert_the_full_walks(graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))

    def test_lex_products_of_an_edgeless_circulant(self):
        # C_a()[H] is a copies of H side by side: a rotation by one copy is
        # an automorphism, one by a vertex is not when H has an edge
        for a in (2, 3):
            for m in range(2, 5):
                for s in connection_sets(m):
                    g = lex_product(circulant(a, []), circulant(m, s))
                    if s:
                        oracle = InducedHomology(g, Q)
                        assert oracle.orbit_vertex(oracle.full) == 0
                    self.assert_the_full_walks(g)

    def test_the_orbit_vertex(self):
        # every vertex of a circulant, and each component of C24(6,12),
        # K4 on {1, 7, 13, 19} and its rotations, by rotations of 6
        oracle = InducedHomology(circulant(14, [1]), Q)
        assert oracle.orbit_vertex(oracle.full) == 1
        assert oracle.orbit_vertex(0) == 0
        oracle = InducedHomology(circulant(24, [6, 12]), Q)
        comps = circm.graphs._component_masks(oracle.graph, oracle.full)
        assert [_vertices(comp) for comp in comps[:2]] == [(1, 7, 13, 19), (2, 8, 14, 20)]
        assert [oracle.orbit_vertex(comp) for comp in comps] == list(range(1, 7))
        assert oracle.orbit_vertex(comps[0] | comps[1]) == 0
        # C4(1)[C2(1)]: rotations by two vertices only; a random graph has
        # none but the identity
        oracle = InducedHomology(lex_product(circulant(4, [1]), circulant(2, [1])), Q)
        assert oracle.orbit_vertex(oracle.full) == 0
        oracle = InducedHomology(random_graphs(9)[1], Q)
        assert oracle._rotations == [0] and oracle.orbit_vertex(oracle.full) == 0


class TestTheFullWalkOffTheOracle:
    """The public deciders against the full walk on the rank kernel of
    ``link``, over Q and GF(2): a complex that is not flag has no oracle,
    so its scan takes that route itself, with no face drawn per orbit but
    with the cutoffs below the ridges and at the depth found so far."""

    @staticmethod
    def assert_the_full_walk(c: Complex) -> None:
        for field in (Q, FieldChoice.gf(2)):
            reisner, buchsbaum, depth = full_walk(_masks(c), (None, (1 << c.vertex_count) - 1), field)
            assert reisner_violation(c, field) == reisner, (sorted(map(sorted, c.facets)), str(field))
            if c.is_pure():
                assert buchsbaum_violation(c, field) == buchsbaum, (sorted(map(sorted, c.facets)), str(field))
            assert projective_dimension(c, field, max_vertices=None) == c.vertex_count - depth, (sorted(map(sorted, c.facets)), str(field))

    @pytest.mark.parametrize("c", [c for c, _ in NON_FLAG.values()] + [c for c, _ in GAPPED.values()] + [RP2], ids=[*NON_FLAG, *GAPPED, "RP2"])
    def test_named_complexes(self, c):
        self.assert_the_full_walk(c)

    def test_random_pure_and_impure_complexes(self):
        # pure: up to 8 facets of k vertices on up to 8 vertices; and up to
        # four random facets on up to 7 (``random_complexes``), which leave
        # 44 of 150 impure; most of either kind are not flag
        rng = random.Random(28)
        pure = []
        for _ in range(150):
            n = rng.randint(1, 8)
            pool = list(combinations(range(1, n + 1), rng.randint(1, min(n, 4))))
            pure.append(Complex.from_facets(n, rng.sample(pool, rng.randint(1, min(8, len(pool))))))
        complexes = pure + random_complexes(150, 28)
        assert sum(not c.is_pure() for c in complexes) == 44
        assert sum(_oracle(c, Q)[1][0] is None for c in complexes) > 150
        for c in complexes:
            self.assert_the_full_walk(c)
