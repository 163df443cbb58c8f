import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest

import circm.cli
from circm import InconsistencyError
from circm.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def failing_report(*args, **kwargs):
    raise InconsistencyError("routes disagree")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked while the test runs."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# runs the CLI, writing to stderr each forked worker's pid and, at the
# end, how many cases the CLI process ran itself
SWEEP_RECORDING_WORKERS = """
import os, sys
import circm.cli

fork, case, ran = os.fork, circm.cli._sweep_case, []

def recording_fork():
    pid = fork()
    if pid:
        print(f"worker {pid}", file=sys.stderr, flush=True)
    return pid

def recording_case(params):
    ran.append(params[0])
    return case(params)

os.fork, circm.cli._sweep_case = recording_fork, recording_case
rc = circm.cli.main(sys.argv[1:])
print(f"ran {len(ran)}", file=sys.stderr)
sys.exit(rc)
"""


class TestAnalyze:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "5", "--set", "1")
        assert code == 0
        assert "f-vector:     (1, 5, 5)" in out
        assert "cm:           True" in out
        # the one label longer than the column still has a space before its value
        assert "vertex_decomposable: True" in out.splitlines()

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "7", "--set", "1", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["graph"] == "C7(1)"
        assert rep["h"] == [1, 4, 3, -1]
        assert rep["buchsbaum"] is True and rep["cm"] is False
        assert rep["cm_witness"] == {"face": [], "i": 1}

    def test_negative_h_warning(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "7", "--set", "1")
        assert code == 0
        assert "negative entries" in out

    def test_check_selection(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "5", "--set", "1", "--checks", "wc")
        assert code == 0
        assert "well_covered" in out and "pdim" not in out

    def test_betti_check(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "7", "--set", "1", "--checks", "betti", "--json")
        assert code == 0
        assert json.loads(out)["betti"] == {"-1": 0, "0": 0, "1": 1, "2": 0}

    def test_gf_field(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "7", "--set", "1", "--field", "gf:32003", "--json")
        assert code == 0
        assert json.loads(out)["field"] == "gf:32003"

    @pytest.mark.parametrize("n", ["12", "16"])
    def test_small_budget_on_a_vertex_decomposable_complex(self, capsys, n):
        code, out, _ = run(capsys, "analyze", "--n", n, "--set", str(int(n) // 2), "--checks", "cm", "--budget", "10", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["vertex_decomposable"] is True and rep["shellable"] is True

    def test_inconsistency_exits_4_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(circm.cli, "full_report", failing_report)
        code, out, err = run(capsys, "analyze", "--n", "5", "--set", "1")
        assert code == 4 and out == ""
        assert err == "internal inconsistency: routes disagree\n"

    def test_invalid_set_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--n", "6", "--set", "5")
        assert code == 2
        assert "error" in err

    def test_invalid_field_exits_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--n", "5", "--set", "1", "--field", "gf:10")
        assert code == 2

    def test_composite_field_modulus_exits_2(self, capsys):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
        code, _, err = run(capsys, "analyze", "--n", "5", "--set", "1", "--field", "gf:3215031751")
        assert code == 2
        assert "prime" in err

    def test_unknown_check_exits_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--n", "5", "--set", "1", "--checks", "bogus")
        assert code == 2

    def test_pdim_guard_yields_null(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "17", "--set", "1", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["pdim"] is None and rep["depth"] is None

    def test_allow_large_pdim_computes_no_pdim_that_was_not_asked_for(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "12", "--set", "1", "--checks", "cm", "--allow-large-pdim", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["pdim"] is None and rep["depth"] is None

    def test_allow_large_pdim_lifts_the_guard(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "17", "--set", "1", "--checks", "pdim", "--allow-large-pdim", "--json")
        assert code == 0
        # Jacques: the edge ideal of the cycle C_n has pdim ceil((2n - 1) / 3)
        assert json.loads(out)["pdim"] == 11

    def test_every_report_on_at_most_twelve_vertices_is_pinned(self, capsys):
        # sha256 of the exit codes and default reports, pdim included, of
        # the 189 C_n(S) with n <= 12 over Q and over GF(2); pinned before
        # the report handed its oracle and component masks to the scans
        outs = []
        for n in range(1, 13):
            for k in range(n // 2 + 1):
                for s in combinations(range(1, n // 2 + 1), k):
                    for field in ("q", "gf:2"):
                        code, out, _ = run(capsys, "analyze", "--n", str(n), "--set", ",".join(map(str, s)), "--field", field, "--json")
                        outs.append(f"{code}\n{out}")
        assert len(outs) == 378
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == "5acced2502b34806408dd87246617ca05f0710fad0847308f7bdfd89bbad01c7"


class TestLexprod:
    def test_cm_product(self, capsys):
        code, out, _ = run(capsys, "lexprod", "--g", "5:1", "--h", "2:1", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["graph"] == "C5(1)[C2(1)]"
        assert rep["n"] == 10 and rep["edges"] == 25
        assert rep["cm"] is True

    def test_non_cm_product(self, capsys):
        code, out, _ = run(capsys, "lexprod", "--g", "2:1", "--h", "5:1", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["edges"] == 35
        assert rep["cm"] is False

    def test_bad_spec_exits_2(self, capsys):
        code, _, _ = run(capsys, "lexprod", "--g", "5;1", "--h", "2:1")
        assert code == 2

    def test_small_products_are_pinned(self, capsys):
        # sha256 of the 81 reports G[H] over the circulants on at most 4
        # vertices, every check and shelling order included: edgeless left
        # factors give disjoint copies of H, and disconnected right factors
        # give components that are joins themselves; pinned before a report
        # grouped its components by the symmetry classes of its oracle
        specs = [f"{n}:{','.join(map(str, s))}" for n in range(1, 5) for k in range(n // 2 + 1) for s in combinations(range(1, n // 2 + 1), k)]
        outs = []
        for g in specs:
            for h in specs:
                code, out, _ = run(capsys, "lexprod", "--g", g, "--h", h, "--checks", "wc,cm,bb,vd,sh,pdim,betti", "--json")
                assert code == 0, (g, h)
                outs.append(out)
        assert len(outs) == 81
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == "92bb687a2a05a21cafb72c6c57e937c36c24bc587f06a622bd4e3be881ac0061"


class TestSweep:
    def test_interval_lines(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "interval", "--d-min", "1", "--d-max", "1", "--n-max", "7")
        assert code == 0
        lines = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [e["key"] for e in lines] == [f"d=1,n={n}" for n in range(2, 8)]
        by_n = {e["n"]: e for e in lines}
        assert by_n[5]["cm"] is True and by_n[7]["cm"] is False

    def test_cubic_lines(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "6")
        assert code == 0
        lines = [json.loads(ln) for ln in out.strip().splitlines()]
        got = {e["key"]: e["cm"] for e in lines}
        assert got == {"2n=4,a=1": True, "2n=6,a=1": False, "2n=6,a=2": True}

    def test_small_budget_prints_no_error_line(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "16", "--budget", "1")
        assert code == 0
        assert not any("error" in json.loads(ln) for ln in out.strip().splitlines())

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_error_lines_exit_4(self, capsys, monkeypatch, jobs):
        monkeypatch.setattr(circm.cli, "full_report", failing_report)
        code, out, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "6", "--jobs", jobs)
        assert code == 4
        lines = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [e["error"] for e in lines] == ["InconsistencyError: routes disagree"] * 3

    def test_parallel_jobs_same_output(self, capsys):
        _, solo, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "8")
        _, par, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "8", "--jobs", "2")
        assert solo == par

    def test_workers_are_capped_at_the_case_count(self, capsys, forks):
        _, solo, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "6", "--jobs", "1")
        assert forks == []
        # three cases: this process runs one, two forked workers the others
        code, par, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "6", "--jobs", "8")
        assert (code, par) == (0, solo)
        assert len(forks) == 2
        assert_reaped(forks)

    def test_without_fork_jobs_run_in_process(self, capsys, monkeypatch):
        _, solo, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "8", "--jobs", "1")
        monkeypatch.delattr(os, "fork")
        code, par, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "8", "--jobs", "3")
        assert (code, par) == (0, solo)

    def test_a_worker_that_dies_leaves_error_lines_for_its_cases(self, capsys, monkeypatch, forks):
        real = circm.cli._sweep_case

        def case(params):
            if params[0] == "2n=8,a=1":  # case 3, the second of worker 1's cases 1, 3 and 5
                os._exit(3)
            return real(params)

        monkeypatch.setattr(circm.cli, "_sweep_case", case)
        code, out, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "8", "--jobs", "2")
        assert code == 4
        lines = [json.loads(line) for line in out.splitlines()]
        assert [e["key"] for e in lines] == ["2n=4,a=1", "2n=6,a=1", "2n=6,a=2", "2n=8,a=1", "2n=8,a=2", "2n=8,a=3"]
        died = "WorkerExited: the worker process ended with code 3 before this case"
        assert [e.get("error") for e in lines] == [None, None, None, died, None, died]
        assert lines[5] == {"key": "2n=8,a=3", "n": 8, "s": [3, 4], "error": died}
        assert lines[4]["cm"] is True
        assert_reaped(forks)

    @pytest.mark.parametrize("failing, code", [(None, 0), ("2n=6,a=1", 4)], ids=["none", "worker-case"])
    def test_exit_4_exactly_when_a_line_has_an_error_key(self, capsys, monkeypatch, failing, code):
        def case(params):
            entry = {"key": params[0], "note": '"error": "none"'}
            if params[0] == failing:  # case 1, run by the forked worker
                entry["error"] = "x"
            return entry

        monkeypatch.setattr(circm.cli, "_sweep_case", case)
        got, out, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "6", "--jobs", "2")
        assert got == code
        assert [json.loads(line).get("error") for line in out.splitlines()] == [None, failing and "x", None]

    def test_a_sweep_that_stops_early_kills_and_reaps_its_workers(self, capsys, monkeypatch, forks):
        real, cli = circm.cli._sweep_case, os.getpid()

        def case(params):
            if os.getpid() == cli and params[0] == "2n=6,a=2":  # case 2, this process's second
                raise KeyboardInterrupt
            if os.getpid() != cli and params[0] == "2n=8,a=1":  # case 3, worker 1's second
                time.sleep(60)
            return real(params)

        monkeypatch.setattr(circm.cli, "_sweep_case", case)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--family", "cubic", "--max-2n", "8", "--jobs", "2"])
        # the worker was killed in its sleep, not waited for
        assert time.monotonic() - start < 30
        assert [json.loads(line)["key"] for line in capsys.readouterr().out.splitlines()] == ["2n=4,a=1", "2n=6,a=1"]
        assert len(forks) == 1
        assert_reaped(forks)

    def test_a_closed_stdout_stops_the_sweep_and_its_workers(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", SWEEP_RECORDING_WORKERS, "sweep", "--family", "cubic", "--max-2n", "24", "--jobs", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert json.loads(proc.stdout.readline())["key"] == "2n=4,a=1"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        worker, broken, ran = err.splitlines()
        assert broken == "error: [Errno 32] Broken pipe"
        # this process stopped before its own half of the 66 cases
        assert int(ran.removeprefix("ran ")) < 33
        with pytest.raises(ProcessLookupError):
            os.kill(int(worker.removeprefix("worker ")), 0)

    def test_lines_stream_as_cases_finish(self, capsys, monkeypatch):
        printed = []
        real = circm.cli._sweep_case

        def case(params):
            printed.append(capsys.readouterr().out)
            return real(params)

        monkeypatch.setattr(circm.cli, "_sweep_case", case)
        assert main(["sweep", "--family", "cubic", "--max-2n", "8", "--jobs", "1"]) == 0
        printed.append(capsys.readouterr().out)
        # every case finds each earlier case's line already written
        assert [p.count("\n") for p in printed] == [0] + [1] * 6

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_interval_output_is_pinned(self, capsys, jobs):
        # sha256 of the 84 reports of C_n(1..d), d <= 6, every shelling
        # order included, pinned before the vertex decomposition search
        # answered disconnected complexes without searching them
        code, out, _ = run(capsys, "sweep", "--family", "interval", "--d-max", "6", "--jobs", jobs)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == "31f45b4dc8a35c9f5ed6d505af4b2978ac6d618329690ae35bfc64821d57f8d6"

    def test_d_min_below_one_exits_2_before_any_case(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "interval", "--d-min", "0", "--d-max", "1")
        assert (code, out) == (2, "")
        assert "--d-min" in err

    @pytest.mark.parametrize("bounds", [["--d-max", "-3"], ["--d-min", "3", "--d-max", "2"]], ids=["negative", "below-d-min"])
    def test_d_max_below_d_min_exits_2_before_any_case(self, capsys, monkeypatch, bounds):
        monkeypatch.setattr(circm.cli, "full_report", failing_report)
        code, out, err = run(capsys, "sweep", "--family", "interval", *bounds)
        assert (code, out) == (2, "")
        assert "--d-max" in err

    @pytest.mark.parametrize(
        "bounds, option",
        [
            (["--d-max", "2", "--n-max", "1"], "--n-max"),
            (["--d-max", "1", "--n-min", "9", "--n-max", "8"], "--n-max"),
            (["--d-max", "1", "--n-min", "11"], "--n-min"),
        ],
        ids=["n-max-below-2d", "n-max-below-n-min", "n-min-above-4d+6"],
    )
    def test_an_n_range_that_holds_no_case_exits_2_before_any_case(self, capsys, monkeypatch, bounds, option):
        monkeypatch.setattr(circm.cli, "full_report", failing_report)
        code, out, err = run(capsys, "sweep", "--family", "interval", *bounds)
        assert (code, out) == (2, "")
        assert option in err

    def test_an_n_range_that_holds_a_case_for_one_d_runs_it(self, capsys):
        # n = 5 lies in 2d..4d+6 only for d = 1 and 2
        code, out, _ = run(capsys, "sweep", "--family", "interval", "--d-max", "3", "--n-min", "5", "--n-max", "5")
        assert code == 0
        assert [json.loads(line)["key"] for line in out.splitlines()] == ["d=1,n=5", "d=2,n=5"]

    def test_cubic_output_is_pinned(self, capsys):
        # sha256 of the 45 reports of C_2n(a, n), 2n <= 20, every shelling
        # order included, pinned before reports decided a disconnected graph
        # from its components and counted faces from the graph
        code, out, _ = run(capsys, "sweep", "--family", "cubic", "--max-2n", "20", "--jobs", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == "1f4c4fc81dc9265c809c3c8723297bf20d733caaf1cde775fb0210e63ce800ab"


class TestVerify:
    def test_single_theorem(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "cubic", "--max-2n", "8")
        assert code == 0
        assert "cubic" in out and "PASS" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "brown41", "--d-max", "2", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["theorem_id"] == "brown41" and rep["failures"] == []

    def test_h2_evidence_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "lemma-h2", "--d", "2")
        assert code == 0
        assert "computed=" in out and "equal=True" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "9094d8369ecbfa1e56ab27c2877f81cfd67edf6e68ffe433138abd719428900b"),
            (["--d-max", "6", "--max-2n", "16", "--lex-max", "6", "--d", "6"], "561e25d92ef9fc7cc14a42eab31313d4926ca5b19b8a6328ed9405305bfc3cf4"),
            (["--theorem", "brown41", "--d-max", "6", "--d", "6"], "f9a13038fe8bb1673c60be15efaaa1d4ac43cd7fcd369c8197094e5ca408cd21"),
            (["--theorem", "main", "--d-max", "6", "--d", "6"], "beafbfecf3537d6895c389dce4a0d70efffe60a8fa81ca3149c3813a91063461"),
            (["--theorem", "buchsbaum", "--d-max", "6", "--d", "6"], "460cf0095f6b9997283db28f11fc5040726d617a9955d38c18b50ef97bea8933"),
            (["--theorem", "lemma-h2", "--d-max", "6", "--d", "6"], "a33fd35e7bd6392571498a89ce274e2d979be89c6da481cadfba03183af1aa62"),
        ],
        ids=["default", "families", "brown41", "main", "buchsbaum", "lemma-h2"],
    )
    def test_json_output_is_pinned(self, capsys, argv, digest):
        # sha256 of the stdout, pinned while each family theorem still
        # decided its own reading of C_n(1..d)
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExport:
    def test_edges_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        code, _, _ = run(capsys, "export", "--n", "7", "--set", "1,2", "--edges", str(path))
        assert code == 0
        code, out, _ = run(capsys, "export", "--import-edges", str(path))
        assert code == 0
        assert "7 vertices, 14 edges" in out

    def test_facets_round_trip(self, capsys, tmp_path):
        path = tmp_path / "c.facets"
        code, _, _ = run(capsys, "export", "--n", "6", "--set", "2,3", "--facets", str(path))
        assert code == 0
        code, out, _ = run(capsys, "export", "--import-facets", str(path))
        assert code == 0
        assert "6 facets" in out

    def test_smat_dump(self, capsys, tmp_path):
        path = tmp_path / "d1.smat"
        code, _, _ = run(capsys, "export", "--n", "5", "--set", "1", "--smat", str(path), "--smat-dim", "1")
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "5 5"

    @pytest.mark.parametrize(
        "n, s, dim, digest",
        [
            ("11", "1", "2", "b7c70de620006fb164534164c5c649a74ab4668644797a99f01c8dc2dd28f0ac"),
            ("11", "1", "4", "b286720268441d5cd7ab602e9617352272967e409eaac1044629e612090ef4ef"),
            ("12", "1,3,6", "1", "c88d155c911e30f69c1d28aaf656d6abd4986ba8d7b32bf55805a01258f4b95b"),
            ("12", "1,3,6", "2", "782009fdbb66ce966c22aa2da72ee056c90739f56963e48790bffcb77e597100"),
            ("13", "1", "3", "37c40b7ff90e27277a912c9aeee5b44e8b6dc42d4f2841b7c2d2259c1ecb8735"),
            ("13", "1", "5", "e558e1f5934304b0dc2803ced9c5a1c236ae008641c858345a2153985060503b"),
            ("15", "1,2", "2", "3c6e546332f442e41d999153ebaff119e59ca0917fab351c06a87dab837e180e"),
            ("15", "1,2", "4", "c64176831d09187698f13852db0a75ea234128ab85b9ae58f5a880029dc67071"),
        ],
    )
    def test_smat_output_is_pinned(self, capsys, tmp_path, n, s, dim, digest):
        # sha256 of the smat-v1 file, pinned from the tuple-based chain build
        path = tmp_path / "d.smat"
        code, _, _ = run(capsys, "export", "--n", n, "--set", s, "--smat", str(path), "--smat-dim", dim)
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_corrupt_import_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 3\n1 9\n")
        code, _, err = run(capsys, "export", "--import-edges", str(path))
        assert code == 2
        assert "error" in err

    def test_nothing_to_do_exits_2(self, capsys):
        code, _, _ = run(capsys, "export", "--n", "5", "--set", "1")
        assert code == 2

    def test_missing_smat_dim_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "export", "--n", "5", "--set", "1", "--smat", str(tmp_path / "x"), "--smat-dim", "9")
        assert code == 2

    def test_negative_vertex_count_exits_2(self, capsys, tmp_path):
        path = tmp_path / "negative.facets"
        path.write_text("n -3\n\n")
        code, out, err = run(capsys, "export", "--import-facets", str(path))
        assert code == 2 and out == ""
        assert "nonnegative" in err


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["analyze", "--n", "5", "--set", "1", "--budget", "-1"], "--budget"),
            (["lexprod", "--g", "5:1", "--h", "2:1", "--budget", "-1"], "--budget"),
            (["sweep", "--family", "cubic", "--max-2n", "4", "--budget", "-1"], "--budget"),
            (["verify", "--theorem", "cubic", "--budget", "-1"], "--budget"),
            (["sweep", "--family", "cubic", "--max-2n", "4", "--jobs", "0"], "--jobs"),
            (["sweep", "--family", "cubic", "--max-2n", "4", "--jobs", "-3"], "--jobs"),
            # a scope that holds no case would check nothing and still pass
            (["verify", "--d-max", "-1", "--theorem", "main", "--json"], "--d-max"),
            (["verify", "--d-max", "0"], "--d-max"),
            (["verify", "--lex-max", "-2"], "--lex-max"),
            (["verify", "--d", "-4"], "--d"),
            (["verify", "--max-2n", "2"], "--max-2n"),
            (["sweep", "--family", "cubic", "--max-2n", "-5"], "--max-2n"),
            (["sweep", "--family", "cubic", "--max-2n", "3"], "--max-2n"),
        ],
        ids=[
            "analyze-budget", "lexprod-budget", "sweep-budget", "verify-budget", "jobs-0", "jobs-negative",
            "verify-d-max-negative", "verify-d-max-0", "verify-lex-max", "verify-d", "verify-max-2n", "sweep-max-2n-negative", "sweep-max-2n-3",
        ],
    )
    def test_counts_below_their_least_value_exit_2_before_any_case(self, capsys, monkeypatch, argv, option):
        monkeypatch.setattr(circm.cli, "full_report", failing_report)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert f"argument {option}: must be at least" in out.err

    def test_a_zero_budget_is_valid(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "5", "--set", "1", "--checks", "sh", "--budget", "0", "--json")
        assert code == 0 and json.loads(out)["shellable"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--theorem", "brown41", "--d-max", "1", "--field", "q"],
            ["sweep", "--family", "cubic", "--max-2n", "4", "--json"],
            ["export", "--n", "5", "--set", "1", "--smat", "{tmp}/d.smat", "--field", "gf:2"],
        ],
        ids=["verify-field", "sweep-json", "export-field"],
    )
    def test_options_that_change_no_answer_are_not_accepted(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "circm.cli", "analyze", "--n", "4", "--set", "1,2", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cm"] is True


def declared_options() -> dict[str, set[str]]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)} for name, p in sub.choices.items()}


def options_read(argv: list[str]) -> set[str]:
    """The attributes the subcommand reads off its parsed arguments."""
    args = build_parser().parse_args(argv)
    read: set[str] = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    assert args.func(Recording(**vars(args))) == 0
    return read


# tiny invocations that together reach every branch reading an option
INVOCATIONS = {
    "analyze": [["analyze", "--n", "5", "--set", "1", "--json"]],
    "lexprod": [["lexprod", "--g", "3:1", "--h", "2:1", "--checks", "wc,pdim", "--json"]],
    "sweep": [
        ["sweep", "--family", "interval", "--d-max", "1", "--n-min", "2", "--n-max", "3"],
        ["sweep", "--family", "cubic", "--max-2n", "6"],
    ],
    "verify": [["verify", "--theorem", "brown41", "--d-max", "1", "--max-2n", "4", "--lex-max", "1", "--d", "1", "--json"]],
    "export": [["export", "--n", "5", "--set", "1", "--edges", "{tmp}/g.edges", "--facets", "{tmp}/c.facets", "--smat", "{tmp}/d.smat", "--smat-dim", "1"]],
}


class TestOptionHygiene:
    def test_every_subcommand_is_invoked(self):
        assert set(INVOCATIONS) == set(declared_options())

    @pytest.mark.parametrize("command", sorted(INVOCATIONS))
    def test_every_declared_option_is_read(self, capsys, tmp_path, command):
        read = set()
        for argv in INVOCATIONS[command]:
            read |= options_read([arg.format(tmp=tmp_path) for arg in argv])
        capsys.readouterr()
        unread = declared_options()[command] - read
        assert not unread, f"{command} declares options it never reads: {sorted(unread)}"
