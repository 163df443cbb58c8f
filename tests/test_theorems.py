import pytest

from circm import (
    CirculantSpec,
    CubicDecomposition,
    FieldChoice,
    VerifyScope,
    build_octahedron_list,
    circulant,
    expected_cubic_cm,
    expected_family_status,
    h2_equality_experiment,
    interval_circulant,
    octahedron_witness,
    verify_kernel_rank,
    verify_theorems,
)
from circm.theorems import THEOREM_VERIFIERS, expected_octahedron_count, verify_lex_wellcovered

Q = FieldChoice.rational()


class TestExpectedFamilyStatus:
    @pytest.mark.parametrize(
        "n,d,wc,cm,bbnc",
        [
            (4, 1, True, False, True),   # n = 2d+2
            (5, 1, True, True, False),   # n = 3d+2
            (6, 1, False, False, False),
            (7, 1, True, False, True),   # n = 4d+3
            (8, 2, True, True, False),
            (11, 2, True, False, True),
            (2, 1, True, True, False),   # n = 2d
        ],
    )
    def test_boundary_values(self, n, d, wc, cm, bbnc):
        s = expected_family_status(n, d)
        assert (s.well_covered_expected, s.cm_expected, s.buchsbaum_not_cm_expected) == (wc, cm, bbnc)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            expected_family_status(3, 2)


class TestExpectedCubic:
    def test_known_values(self):
        assert expected_cubic_cm(4, 1)        # K4, quotient 4
        assert expected_cubic_cm(6, 2)        # quotient 3
        assert not expected_cubic_cm(6, 1)    # quotient 6
        assert not expected_cubic_cm(10, 1)
        assert expected_cubic_cm(12, 3)       # three copies of K4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expected_cubic_cm(7, 1)
        with pytest.raises(ValueError):
            expected_cubic_cm(8, 4)


class TestOctahedronList:
    @pytest.mark.parametrize("d,count", [(3, 5), (4, 19), (5, 46)])
    def test_counts(self, d, count):
        assert expected_octahedron_count(d) == count
        assert len(build_octahedron_list(d)) == count

    def test_count_closed_form(self):
        for d in range(3, 8):
            n = 4 * d + 3
            assert expected_octahedron_count(d) == n * (d - 1) * (d - 2) // 6

    def test_tuples_are_valid_witnesses(self):
        d = 3
        g = interval_circulant(4 * d + 3, d)
        for t in build_octahedron_list(d):
            w = octahedron_witness(g, t)
            assert w.vertices == t
            assert len(w.cycle) == 8

    def test_witness_rejects_non_matching(self):
        g = interval_circulant(15, 3)
        with pytest.raises(ValueError):
            # 1 and 2 are adjacent: {1,4,2,9,7,14} has no three disjoint edges
            octahedron_witness(g, (1, 2, 4, 9, 7, 14))

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            build_octahedron_list(2)


class TestKernelRank:
    def test_d3(self):
        assert verify_kernel_rank(3, Q) == 5

    def test_guard(self):
        from circm import GuardError

        with pytest.raises(GuardError):
            verify_kernel_rank(6, Q)


class TestH2Experiment:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_small_cases_meet_the_predicted_value(self, d):
        ev = h2_equality_experiment(d, Q)
        assert ev.computed >= ev.formula
        assert ev.equal == (ev.computed == ev.formula)
        assert ev.equal  # holds in the tested range

    def test_guard(self):
        from circm import GuardError

        with pytest.raises(GuardError):
            h2_equality_experiment(9, Q)


class TestVerifyTheorems:
    def test_all_pass_at_small_scope(self):
        scope = VerifyScope(d_max=2, max_two_n=8, lex_factor_max=4, h2_d_max=2)
        results = verify_theorems(scope)
        assert {r.theorem_id for r in results} == set(THEOREM_VERIFIERS)
        for r in results:
            assert r.passed, (r.theorem_id, r.failures)
        assert all(r.cases_run > 0 for r in results)

    def test_single_theorem_selection(self):
        scope = VerifyScope(d_max=1, max_two_n=6, lex_factor_max=3, h2_d_max=1)
        results = verify_theorems(scope, ["cubic"])
        assert len(results) == 1 and results[0].theorem_id == "cubic"

    def test_family_reports_are_built_once_per_run(self, monkeypatch):
        import circm.theorems

        calls = []
        real = circm.theorems.full_report
        monkeypatch.setattr(circm.theorems, "full_report", lambda *a, **k: calls.append(a) or real(*a, **k))
        results = verify_theorems(VerifyScope(), ["main", "buchsbaum"])
        assert all(r.passed for r in results)
        # d = 1..4 and n = 2d..4d+6: 48 interval cases, shared by both
        assert [r.cases_run for r in results] == [48, 48]
        assert len(calls) == 48

    def test_wrong_component_spec_is_a_failure(self, monkeypatch):
        import circm.theorems

        real = circm.theorems.cubic_decompose

        def wrong(two_n, a):
            deco = real(two_n, a)
            # C14(2,7) has the vertex and edge counts of C14(1,7), not its edges
            return CubicDecomposition(deco.t, deco.copies, CirculantSpec(14, (2, 7))) if (two_n, a) == (14, 1) else deco

        monkeypatch.setattr(circm.theorems, "cubic_decompose", wrong)
        (res,) = verify_theorems(VerifyScope(max_two_n=14), ["cubic"])
        assert res.failures == [{"two_n": 14, "a": 1, "component_not_isomorphic_to": "C14(2,7)"}]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            verify_theorems(VerifyScope(), ["nope"])


class TestWellCoveredLexProduct:
    def test_product_well_covered_iff_both_factors(self):
        from circm import is_well_covered, lex_product

        wc = circulant(5, [1])      # well-covered
        not_wc = circulant(6, [1])  # not well-covered
        assert is_well_covered(lex_product(wc, wc))
        assert not is_well_covered(lex_product(wc, not_wc))
        assert not is_well_covered(lex_product(not_wc, wc))
        assert not is_well_covered(lex_product(not_wc, not_wc))

    def test_every_product_of_circulants_on_at_most_six_vertices(self):
        # the scope of `circm verify --lex-max 6`: 21 factors, 441 products
        res = verify_lex_wellcovered(VerifyScope(lex_factor_max=6))
        assert (res.cases_run, res.failures) == (441, [])
