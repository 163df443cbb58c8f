from types import SimpleNamespace

import pytest

import circm.theorems
from circm import (
    CirculantSpec,
    CubicDecomposition,
    FieldChoice,
    InconsistencyError,
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
from circm.theorems import THEOREM_VERIFIERS, FamilyStatus, expected_octahedron_count, verify_lex_wellcovered

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

    def test_a_perturbed_closed_form_is_an_inconsistency(self, monkeypatch):
        # one octahedron too many in the closed form |L| = (4d+3)/3 C(d-1, 2)
        real = circm.theorems.expected_octahedron_count
        monkeypatch.setattr(circm.theorems, "expected_octahedron_count", lambda d: real(d) + 1)
        with pytest.raises(InconsistencyError, match="list size mismatch"):
            build_octahedron_list(3)

    def test_a_perturbed_octahedron_cycle_is_an_inconsistency(self, monkeypatch):
        # one face of the 8-term cycle with its sign flipped leaves the kernel
        real = circm.theorems._octahedron_faces
        monkeypatch.setattr(circm.theorems, "_octahedron_faces", lambda t: [(f, -s if k == 0 else s) for k, (f, s) in enumerate(real(t))])
        with pytest.raises(InconsistencyError, match="not in the kernel"):
            octahedron_witness(interval_circulant(15, 3), build_octahedron_list(3)[0])


class TestKernelRank:
    def test_d3(self):
        assert verify_kernel_rank(3, Q) == 5

    def test_d6_needs_no_guard_lifted(self):
        assert verify_kernel_rank(6, Q) == expected_octahedron_count(6) == 90


class TestH2Experiment:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_small_cases_meet_the_predicted_value(self, d):
        ev = h2_equality_experiment(d, Q)
        assert ev.computed >= ev.formula
        assert ev.equal == (ev.computed == ev.formula)
        assert ev.equal  # holds in the tested range

    def test_d6_needs_no_guard_lifted(self):
        ev = h2_equality_experiment(6, Q)
        assert (ev.computed, ev.formula, ev.equal) == (90, 90, True)

    def test_reads_no_report_of_a_verify_run(self):
        # a report of C15(1..3) with H~_2 = 0, held by a verify run, does
        # not change the answer
        token = circm.theorems._RUN_REPORTS.set({(15, 3): SimpleNamespace(field=Q, betti={2: 0})})
        try:
            assert h2_equality_experiment(3, Q).computed == 5
        finally:
            circm.theorems._RUN_REPORTS.reset(token)


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
        import circm.complexes

        calls, wc_graphs = [], []
        real = circm.theorems.full_report
        monkeypatch.setattr(circm.theorems, "full_report", lambda *a, **k: calls.append(a) or real(*a, **k))
        for module in (circm.theorems, circm.complexes):
            monkeypatch.setattr(module, "is_well_covered", lambda g, _real=module.is_well_covered: wc_graphs.append(g) or _real(g))
        results = verify_theorems(VerifyScope(), ["brown41", "main", "buchsbaum", "lemma-h2"])
        assert all(r.passed for r in results)
        # d = 1..4 and n = 2d..4d+6: 48 interval cases, shared by the three
        # family theorems; lemma-h2 reads H~_2 off the reports of
        # C_{4d+3}(1..d) for d = 1..3, and brown41 well-coveredness
        assert [r.cases_run for r in results] == [48, 48, 48, 3]
        assert len(calls) == 48
        assert wc_graphs == []

    def test_h2_reads_the_reports_of_main(self, monkeypatch):
        scope = VerifyScope(d_max=3, h2_d_max=3)
        (alone,) = verify_theorems(scope, ["lemma-h2"])
        # main reports on every C_{4d+3}(1..d) with d <= 3, so H~_2 is read
        # off those reports; a d beyond main's scope costs one more report
        calls, oracles = [], []
        real = circm.theorems.full_report
        monkeypatch.setattr(circm.theorems, "full_report", lambda g, **k: calls.append(g.vertex_count) or real(g, **k))
        monkeypatch.setattr(circm.theorems, "InducedHomology", lambda g, f: oracles.append(g))
        main, shared = verify_theorems(scope, ["main", "lemma-h2"])
        assert main.passed and shared.to_json_dict() == alone.to_json_dict()
        assert len(calls) == main.cases_run
        calls.clear()
        main, _ = verify_theorems(VerifyScope(d_max=2, h2_d_max=3), ["main", "lemma-h2"])
        assert calls[main.cases_run :] == [15]
        assert oracles == []

    def test_a_wrong_closed_form_keeps_the_keys_of_each_failure(self, monkeypatch):
        real = circm.theorems.expected_family_status

        def flipped(n, d):
            # C5(1), the pentagon, is well-covered, CM and not Buchsbaum-not-CM
            want = real(n, d)
            if (n, d) != (5, 1):
                return want
            return FamilyStatus(n, d, not want.well_covered_expected, not want.cm_expected, not want.buchsbaum_not_cm_expected)

        monkeypatch.setattr(circm.theorems, "expected_family_status", flipped)
        results = verify_theorems(VerifyScope(d_max=1), ["brown41", "main", "buchsbaum"])
        assert {r.theorem_id: r.failures for r in results} == {
            "brown41": [{"n": 5, "d": 1, "well_covered": True, "expected": False}],
            "main": [{"n": 5, "d": 1, "well_covered": True, "cm": True, "vertex_decomposable": True, "shellable": True}],
            "buchsbaum": [{"n": 5, "d": 1, "buchsbaum_not_cm": False, "expected": True}],
        }
        assert [list(f) for r in results for f in r.failures] == [
            ["n", "d", "well_covered", "expected"],
            ["n", "d", "well_covered", "cm", "vertex_decomposable", "shellable"],
            ["n", "d", "buchsbaum_not_cm", "expected"],
        ]

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
