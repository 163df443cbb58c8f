from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circm.homology
from circm import (
    Complex,
    FieldChoice,
    InconsistencyError,
    build_chain_complex,
    circulant,
    f_vector,
    independence_complex,
    kernel_rank_of,
    reduced_betti,
)
from circm.complexes import _masks, faces
from circm.fields import _is_prime, rank_of_rows, rows_from_vectors
from circm.homology import ChainComplexData, _assert_boundary_squares_to_zero, _betti_by_ranks

from conftest import brute_boundary_composition_is_zero, brute_reduced_betti, dense_rank, dense_rank_mod, euler_check, graph_from_edges

Q = FieldChoice.rational()
GF = FieldChoice.gf()


class TestFieldChoice:
    def test_parse(self):
        assert FieldChoice.parse("q") == Q
        assert FieldChoice.parse("gf:7").p == 7

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            FieldChoice.gf(9)
        with pytest.raises(ValueError):
            FieldChoice.parse("gf:1")

    @pytest.mark.parametrize("p", [5.0, True, "5", 7.5])
    def test_rejects_a_modulus_that_is_not_an_int(self, p):
        # 5.0 would print gf:5.0, compare equal to GF(5) and fail in pow()
        with pytest.raises(ValueError, match=f"got {p!r}"):
            FieldChoice("gf", p)
        assert FieldChoice.parse("gf:5") == FieldChoice.gf(5)

    def test_large_moduli(self):
        for p in (998244353, 1000000007, (1 << 61) - 1):
            assert FieldChoice.gf(p).p == p
        # Fermat and strong pseudoprimes to small bases, and a prime square
        for n in (341, 561, 2047, 25326001, 3215031751, 1000003**2):
            with pytest.raises(ValueError):
                FieldChoice.gf(n)

    def test_primality_matches_a_sieve(self):
        limit = 200_000
        sieve = [False, False] + [True] * (limit - 1)
        for d in range(2, int(limit**0.5) + 1):
            if sieve[d]:
                sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
        assert [n for n in range(limit + 1) if _is_prime(n) != sieve[n]] == []

    def test_str_roundtrip(self):
        assert FieldChoice.parse(str(GF)) == GF


def matrices(lo, hi, max_side):
    """Dense integer matrices of 1..max_side rows and columns."""
    return st.integers(1, max_side).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(lo, hi), min_size=width, max_size=width),
            min_size=1,
            max_size=max_side,
        )
    )


class TestRank:
    @given(matrices(-60, 60, 9))
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_fraction_elimination(self, mat):
        rows = rows_from_vectors(mat)
        assert rank_of_rows(rows, Q) == dense_rank(mat)
        assert rank_of_rows(rows, GF) == dense_rank_mod(mat, GF.p)

    @pytest.mark.parametrize("p", [2, 3])
    @given(mat=matrices(-3, 3, 7))
    @settings(max_examples=120, deadline=None)
    def test_small_prime_matches_dense_residue_elimination(self, p, mat):
        # over GF(2) and GF(3) the rank can fall below the rank over Q
        assert rank_of_rows(rows_from_vectors(mat), FieldChoice.gf(p)) == dense_rank_mod(mat, p)

    @pytest.mark.parametrize("p", [5, 7, 32003])
    @given(mat=matrices(2, 40, 6))
    @settings(max_examples=60, deadline=None)
    def test_pivot_entries_other_than_one(self, p, mat):
        # every entry is 2..40, so most lows need scaling to 1 before they pivot
        assert rank_of_rows(rows_from_vectors(mat), FieldChoice.gf(p)) == dense_rank_mod(mat, p)

    def test_scaled_pivot_cancels_a_multiple(self):
        # over GF(7) the second row is 5 times the first, whose low entry is 2
        mat = [[3, 2], [1, 3], [4, 1]]
        assert rank_of_rows(rows_from_vectors(mat), FieldChoice.gf(7)) == dense_rank_mod(mat, 7) == 2
        assert rank_of_rows(rows_from_vectors(mat[:2]), FieldChoice.gf(7)) == dense_rank_mod(mat[:2], 7) == 1

    @given(matrices(-3, 3, 7))
    @settings(max_examples=60, deadline=None)
    def test_lows_are_the_pivot_columns(self, mat):
        rows = rows_from_vectors(mat)
        before = [dict(r) for r in rows]
        # column j ends a vector of the row space iff the columns from j
        # on have a larger rank than the columns after j
        for field, dense in ((Q, dense_rank), (FieldChoice.gf(2), lambda m: dense_rank_mod(m, 2))):
            rank = rank_of_rows(rows, field)
            tail = [dense([row[j:] for row in mat]) for j in range(len(mat[0]) + 1)]
            assert rank.lows == {j for j in range(len(mat[0])) if tail[j] > tail[j + 1]}
            assert rows == before

    def test_lows_of_a_dependent_row(self):
        # the third row is the sum of the first two, which end at columns 1 and 2
        rank = rank_of_rows([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 1: 2, 2: 1}], Q)
        assert (rank, rank.lows) == (2, {1, 2})

    def test_rank_with_fractions(self):
        from fractions import Fraction

        singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        assert rank_of_rows(rows_from_vectors(singular), Q) == 1
        regular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 1)]]
        assert rank_of_rows(rows_from_vectors(regular), Q) == 2

    def test_span_rank_of_vector_family(self):
        assert kernel_rank_of([[1, 1], [1, 1]], Q) == 1
        assert kernel_rank_of([[1, 0], [0, 1]], Q) == 2
        assert kernel_rank_of([[0, 0], [0, 0]], Q) == 0

    @pytest.mark.parametrize(
        "vectors",
        [[[0.5, 1], [1, 2]], [[0.5, 0.0]], [[1, 2.0]], [[1, "2"]], [[1, None]]],
        ids=["rank-1-read-as-2", "nonzero-read-as-zero", "integral-float", "str", "none"],
    )
    def test_inexact_entries_are_rejected(self, vectors):
        # truncating 0.5 to 0 turned the rank-1 pair into rank 2, and a
        # nonzero row into the zero row
        with pytest.raises(ValueError, match="ints or Fractions"):
            kernel_rank_of(vectors, Q)

    def test_an_entry_with_no_image_in_gf_p_is_rejected(self):
        # 1/3 has no image in GF(3); scaling the row by 3 read it as
        # [1, 0] there and answered rank 1
        from fractions import Fraction

        with pytest.raises(ValueError, match="entry 1/3 has no image in GF\\(3\\)"):
            kernel_rank_of([[Fraction(1, 3), 1]], FieldChoice.gf(3))
        assert kernel_rank_of([[Fraction(1, 3), 1]], FieldChoice.gf(5)) == 1
        assert kernel_rank_of([[Fraction(1, 3), 1]], Q) == 1


class TestChainComplex:
    def test_boundary_shapes_for_triangle(self):
        c = Complex.from_facets(3, [[1, 2, 3]])
        data = build_chain_complex(c)
        assert [data.face_count(i) for i in range(-1, 3)] == [1, 3, 3, 1]
        # each column of the 1-boundary has one +1 and one -1
        for col in data.boundaries[1]:
            assert sorted(col.values()) == [-1, 1]

    def test_basis_is_lexicographic(self):
        c = Complex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
        data = build_chain_complex(c)
        assert data.bases[1] == [(1, 2), (1, 3), (2, 3)]


KNOWN_BETTI = [
    # hollow triangle: a circle
    (Complex.from_facets(3, [[1, 2], [2, 3], [1, 3]]), {1: 1}),
    # boundary of the tetrahedron: a 2-sphere
    (Complex.from_facets(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]), {2: 1}),
    # solid simplex: contractible
    (Complex.from_facets(4, [[1, 2, 3, 4]]), {}),
    # two isolated points
    (Complex.from_facets(2, [[1], [2]]), {0: 1}),
    # empty complex {∅}
    (Complex.from_facets(0, [[]]), {-1: 1}),
    # two disjoint hollow triangles: one extra component plus two circles
    (Complex.from_facets(6, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]), {0: 1, 1: 2}),
]


class TestReducedBetti:
    @pytest.mark.parametrize("c,expected", KNOWN_BETTI)
    def test_known_spaces(self, c, expected):
        for field in (Q, GF):
            betti = reduced_betti(c, field)
            got = {i: b for i, b in betti.as_dict().items() if b}
            assert got == expected

    def test_out_of_range_is_zero(self):
        betti = reduced_betti(Complex.from_facets(3, [[1, 2, 3]]), Q)
        assert betti[5] == 0
        assert betti[-3] == 0

    def test_disconnected_independence_complex(self):
        # the square's independence complex is two disjoint edges
        betti = reduced_betti(independence_complex(circulant(4, [1])), Q)
        assert betti[0] == 1 and betti[1] == 0

    def test_independence_complex_of_odd_cycle(self):
        # Ind(C7(1)) is homotopy equivalent to a circle
        betti = reduced_betti(independence_complex(circulant(7, [1])), Q)
        assert betti.as_dict() == {-1: 0, 0: 0, 1: 1, 2: 0}


# the 6-vertex real projective plane, the smallest triangulation of RP^2
RP2 = Complex.from_facets(
    6,
    [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6], [2, 3, 5], [3, 4, 6], [2, 4, 5], [3, 5, 6], [2, 4, 6]],
)


class TestTorsion:
    def test_rp2_is_acyclic_over_q_and_gf3(self):
        for field in (Q, FieldChoice.gf(3)):
            assert not any(reduced_betti(RP2, field).as_dict().values())

    def test_rp2_over_gf2(self):
        # the 2-torsion of H_1(RP^2; Z) = Z/2 shows in H~_1 and H~_2
        assert reduced_betti(RP2, FieldChoice.gf(2)).as_dict() == {-1: 0, 0: 0, 1: 1, 2: 1}


class TestEulerIdentity:
    @pytest.mark.parametrize("c,_", KNOWN_BETTI)
    def test_known_spaces(self, c, _):
        assert euler_check(c, Q)
        assert euler_check(c, GF)

    @given(st.integers(4, 9), st.sets(st.integers(1, 4), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_random_independence_complexes(self, n, s):
        g = circulant(n, sorted(x for x in s if x <= n // 2))
        c = independence_complex(g)
        assert euler_check(c, Q)
        assert euler_check(c, GF)


class TestFieldAgreement:
    @pytest.mark.parametrize("n,s", [(8, (1, 2)), (9, (1, 3)), (10, (2, 5)), (11, (1, 2, 3))])
    def test_rational_equals_large_prime(self, n, s):
        c = independence_complex(circulant(n, list(s)))
        assert reduced_betti(c, Q).as_dict() == reduced_betti(c, GF).as_dict()


# the 7-vertex torus and the 5-vertex Möbius strip
TORUS7 = Complex.from_facets(7, [[i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1] for i in range(7) for a in (1, 2)])
MOBIUS5 = Complex.from_facets(5, [[i % 5 + 1, (i + 1) % 5 + 1, (i + 2) % 5 + 1] for i in range(5)])
SMALL_FIELDS = [Q, FieldChoice.gf(2), FieldChoice.gf(3)]


@st.composite
def complexes(draw) -> Complex:
    """Flag complexes Ind(G) and arbitrary facet families on up to 7
    vertices, with up to two further vertices in no face."""
    used = draw(st.integers(0, 7))
    uncovered = draw(st.integers(0, 2))
    if draw(st.booleans()):
        edges = draw(st.sets(st.sampled_from(list(combinations(range(used), 2))))) if used > 1 else set()
        facets = independence_complex(graph_from_edges(used, edges)).facets
    else:
        vertex_sets = st.sets(st.integers(1, used), max_size=4) if used else st.just(set())
        facets = draw(st.lists(vertex_sets, min_size=1, max_size=8))
    return Complex.from_facets(used + uncovered, facets, reduce=True)


class TestBettiAgainstDenseElimination:
    """Clearing skips columns, and the public function routes a flag
    complex through the homology oracle; the dense oracle of conftest
    reduces every column, and both the public function and the rank
    kernel must agree with it."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(complexes())
    @example(Complex.from_facets(0, [[]]))
    @example(Complex.from_facets(3, [[]]))
    @example(RP2)
    def test_random_complexes(self, c):
        for field in SMALL_FIELDS:
            want = brute_reduced_betti(c.facets, field)
            assert reduced_betti(c, field).as_dict() == want
            assert _betti_by_ranks(_masks(c), field).as_dict() == want

    @pytest.mark.parametrize(
        "c,betti",
        [
            # the Z/2 of H_1(RP^2; Z) shows over GF(2) only
            (RP2, [{}, {1: 1, 2: 1}, {}]),
            (TORUS7, [{1: 2, 2: 1}] * 3),
            (MOBIUS5, [{1: 1}] * 3),
        ],
        ids=["rp2", "torus7", "mobius5"],
    )
    def test_surfaces(self, c, betti):
        for field, expected in zip(SMALL_FIELDS, betti):
            got = reduced_betti(c, field).as_dict()
            assert got == brute_reduced_betti(c.facets, field) == _betti_by_ranks(_masks(c), field).as_dict()
            assert {i: b for i, b in got.items() if b} == expected


class TestChainBasisOrder:
    @staticmethod
    def check(c):
        data = build_chain_complex(c)
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for f in faces(c):
            by_size.setdefault(len(f), []).append(tuple(sorted(f)))
        assert data.bases == {i: sorted(by_size[i + 1]) for i in range(-1, c.dim() + 1)}
        assert sorted(data.boundaries) == list(range(c.dim() + 1))
        for i, cols in data.boundaries.items():
            index = {t: k for k, t in enumerate(data.bases[i - 1])}
            assert len(cols) == len(data.bases[i])
            for t, col in zip(data.bases[i], cols):
                assert col == {index[t[:pos] + t[pos + 1 :]]: (-1) ** pos for pos in range(len(t))}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(complexes())
    @example(Complex.from_facets(0, [[]]))
    @example(Complex.from_facets(4, [[]]))
    def test_bases_are_lexicographic_and_signs_alternate(self, c):
        self.check(c)

    @pytest.mark.parametrize("c", [TORUS7, independence_complex(circulant(11, [1, 2]))], ids=["torus7", "C11(1,2)"])
    def test_fixed_complexes(self, c):
        self.check(c)


class TestBoundarySquareCheck:
    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1])
    def test_a_flipped_sign_is_caught(self, i, k):
        data = build_chain_complex(Complex.from_facets(5, [[1, 2, 3, 4], [2, 3, 4, 5]]))
        _assert_boundary_squares_to_zero(data)
        col = data.boundaries[i][k]
        row = next(iter(col))
        col[row] = -col[row]
        with pytest.raises(InconsistencyError):
            _assert_boundary_squares_to_zero(data)

    # the complex with facets {1, 2} and {2, 3}: three vertices, so ∂_1
    # has rows 0..2, and ∂_0 the single row of the empty face; a row of -3
    # would index the first vertex from the end, 7 past the last
    @pytest.mark.parametrize("i,col", [(1, {0: 1, -3: -1}), (1, {0: 1, 7: -1}), (1, {0: 1, 3: -1}), (0, {1: 1}), (0, {-1: 1})])
    def test_a_row_outside_the_basis_below_is_caught(self, i, col):
        data = build_chain_complex(Complex.from_facets(3, [[1, 2], [2, 3]]))
        _assert_boundary_squares_to_zero(data)
        data.boundaries[i][0] = col
        with pytest.raises(InconsistencyError, match="outside"):
            _assert_boundary_squares_to_zero(data)

    def test_every_build_runs_it(self, monkeypatch):
        checked = []
        monkeypatch.setattr(circm.homology, "_assert_boundary_squares_to_zero", checked.append)
        data = build_chain_complex(TORUS7)
        assert checked == [data]
        # reduced_betti checks the very columns it ranks, before ranking any
        ranked = []

        def ranking(rows, field):
            assert len(checked) == 2
            ranked.extend(rows)
            return rank_of_rows(rows, field)

        monkeypatch.setattr(circm.homology, "rank_of_rows", ranking)
        reduced_betti(TORUS7, Q)
        assert len(checked) == 2 and checked[1] is not data
        assert checked[1].boundaries == data.boundaries
        stored = {id(col) for cols in checked[1].boundaries.values() for col in cols}
        assert ranked and all(id(row) in stored for row in ranked)


def perturb(draw, data: ChainComplexData) -> None:
    """One change to one stored boundary entry: its sign flipped, the
    entry set to 2 or 0, moved to a row the column does not use, or dropped."""
    i = draw(st.sampled_from(sorted(data.boundaries)))
    col = draw(st.sampled_from(data.boundaries[i]))
    if not col:
        return
    row = draw(st.sampled_from(sorted(col)))
    kind = draw(st.sampled_from(["flip", "two", "zero", "move", "drop"]))
    free = [r for r in range(data.face_count(i - 1)) if r not in col]
    if kind == "flip":
        col[row] = -col[row]
    elif kind in ("two", "zero"):
        col[row] = 2 if kind == "two" else 0
    elif kind == "move" and free:
        col[draw(st.sampled_from(free))] = col.pop(row)
    else:
        del col[row]


def check_agrees_with_brute_composition(chain: ChainComplexData) -> bool:
    """The check passes when every entry is +/-1 and the dense ∂∂ vanishes,
    and raises otherwise; True when it raised."""
    unit = all(v in (1, -1) for cols in chain.boundaries.values() for col in cols for v in col.values())
    if unit and brute_boundary_composition_is_zero(chain.boundaries):
        _assert_boundary_squares_to_zero(chain)
        return False
    with pytest.raises(InconsistencyError):
        _assert_boundary_squares_to_zero(chain)
    return True


class TestBoundarySquareCheckAgainstBruteComposition:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(complexes(), st.integers(1, 3), st.data())
    def test_perturbed_columns(self, c, changes, data):
        chain = build_chain_complex(c)
        if not chain.boundaries:
            return
        for _ in range(changes):
            perturb(data.draw, chain)
        check_agrees_with_brute_composition(chain)

    @pytest.mark.parametrize("c", [TORUS7, MOBIUS5, RP2, Complex.from_facets(5, [[1, 2, 3, 4], [2, 3, 4, 5]])], ids=["torus7", "mobius5", "rp2", "two-tetrahedra"])
    def test_every_single_change(self, c):
        chain = build_chain_complex(c)
        caught = 0
        for i, cols in chain.boundaries.items():
            rows = range(chain.face_count(i - 1))
            for col in cols:
                before = dict(col)
                for row, v in before.items():
                    rest = {r: w for r, w in before.items() if r != row}
                    changes = [{**rest, row: -v}, {**rest, row: 2}, {**rest, row: 0}, rest]
                    changes += [{**rest, free: v} for free in rows if free not in before]
                    for changed in changes:
                        col.clear()
                        col.update(changed)
                        caught += check_agrees_with_brute_composition(chain)
                col.clear()
                col.update(before)
        assert caught
        _assert_boundary_squares_to_zero(chain)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_unit_matrices(self, data):
        # few rows, so that terms repeat: equal sets of rows, unequal counts
        height, width = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))

        def columns(rows, count):
            col = st.dictionaries(st.sampled_from(range(rows)), st.sampled_from([1, -1]), max_size=rows)
            return st.lists(col, min_size=count, max_size=count)

        check_agrees_with_brute_composition(ChainComplexData({}, {1: data.draw(columns(height, width)), 2: data.draw(columns(width, data.draw(st.integers(1, 4))))}))

    @pytest.mark.parametrize("factor", [2, -2, 0, 3])
    def test_an_entry_other_than_one_is_caught_where_the_composition_vanishes(self, factor):
        # a multiple of a boundary column still composes to zero
        chain = build_chain_complex(Complex.from_facets(3, [[1, 2, 3]]))
        col = chain.boundaries[2][0]
        for row in col:
            col[row] *= factor
        assert brute_boundary_composition_is_zero(chain.boundaries)
        with pytest.raises(InconsistencyError, match="not"):
            _assert_boundary_squares_to_zero(chain)


class TestClearing:
    def test_cleared_columns_are_never_reduced(self, monkeypatch):
        c = independence_complex(circulant(18, [1]))
        data = build_chain_complex(c)
        rank = {i: int(rank_of_rows(cols, Q)) for i, cols in data.boundaries.items()}
        rows_in = []

        def counting(rows, field):
            rows_in.append(len(rows))
            return rank_of_rows(rows, field)

        monkeypatch.setattr(circm.homology, "rank_of_rows", counting)
        assert {i: b for i, b in _betti_by_ranks(_masks(c), Q).as_dict().items() if b} == {5: 2}
        f = f_vector(c).f  # f[i + 1] is the number of i-faces
        uncleared = [f[i + 1] - rank.get(i + 1, 0) for i in range(c.dim() + 1)]
        assert sum(rows_in) == sum(uncleared) < sum(f[1:])
        assert sorted(rows_in) == sorted(uncleared)
