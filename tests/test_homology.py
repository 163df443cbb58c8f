import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circm import (
    Complex,
    FieldChoice,
    build_chain_complex,
    circulant,
    euler_check,
    independence_complex,
    kernel_rank_of,
    reduced_betti,
)
from circm.fields import _is_prime, rank_of_rows, rows_from_vectors

from conftest import dense_rank, dense_rank_mod

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
