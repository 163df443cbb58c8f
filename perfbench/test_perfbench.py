"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The smoke runs use tiny operations, so they check the harness (metric
names, answer checks, tracing) and not the speed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import REFERENCE_CALIBRATION_S, end_to_end, tail  # noqa: E402
from workloads import POOL_VERDICTS, analyze_check, betti_check, build_ops, closed_form_verdicts  # noqa: E402

WORKLOADS = ("betti", "analyze", "families")


def _bench(cwd, *args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "runs.jsonl"
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return results, records


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_and_passes_every_check(smoke, workload):
    results, _ = smoke
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = results[workload, trace]
        assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert [(name, m["unit"]) for name, m in res["metrics"].items()] == [(m["name"], m["unit"]) for m in spec[key]]
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    assert all(results[workload, 0]["metrics"][m["name"]]["value"] > 0 for m in spec["end_to_end"])


def test_traced_answers_match_untraced(smoke):
    _, records = smoke
    for workload in WORKLOADS:
        plain, traced = (next(r for r in records if r["env"]["workload"] == workload and r["env"]["trace"] == t) for t in (0, 1))
        traced_pass = traced["ops"][len(plain["ops"]) :]
        assert [op["answer_sha256"] for op in traced_pass] == [op["answer_sha256"] for op in plain["ops"]]
        assert traced["details"]["top_layer"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "betti", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_wrong_answers():
    assert betti_check(18, (1,))(0, ['{"betti": {"-1": 0, "5": 2}}\n']) is None
    assert betti_check(18, (1,))(0, ['{"betti": {"5": 1}}\n'])
    assert betti_check(18, (1,))(1, [])
    right = {"well_covered": True, "cm": True, "buchsbaum": True, "vertex_decomposable": True, "shellable": True, "pdim": 6}
    check = analyze_check(12, (6,), ("wc", "cm", "bb", "vd", "sh", "pdim"))
    assert check(0, [json.dumps(right)]) is None
    assert check(0, [json.dumps(right | {"shellable": None})])
    assert check(0, [json.dumps(right | {"error": "InconsistencyError: x"})])


def test_operation_lists_are_fixed_by_the_seed():
    for workload in WORKLOADS:
        first, again, other = (build_ops(workload, seed, False, False) for seed in (7, 7, 8))
        assert [op.args for op in first] == [op.args for op in again] != [op.args for op in other]
    analyze = build_ops("analyze", 7, False, False)
    assert [op.label for op in analyze if op.known_defect] == ["--n 12 --set 6 --checks cm --budget 10"]
    families = build_ops("families", 7, False, True)
    assert [op.streams for op in families] == [True, False] and "--jobs 1" in families[0].label


def test_pinned_pool_agrees_with_closed_forms():
    checked = 0
    for key, pinned in POOL_VERDICTS.items():
        n, s = key.split(":")
        for name, value in closed_form_verdicts(int(n), tuple(int(x) for x in s.split(","))).items():
            assert pinned[name] == value, (key, name)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("n, rank, pct", [(11, None, 50.0), (19, None, 50.0), (20, 10, 50.0), (24, 14, 100 * 14 / 24), (40, 30, 75.0)])
def test_tail_keeps_ten_samples_above(n, rank, pct):
    samples = [float(i) for i in range(1, n + 1)]
    value, percentile, count = tail(samples)
    assert count == n and percentile == pct
    if rank is not None:
        assert value == rank and sum(x > value for x in samples) == 10


def test_end_to_end_combines_per_operation_medians():
    # The calibration starts ran half as fast as on the reference machine.
    slow = 2 * REFERENCE_CALIBRATION_S

    def op(latency, first=None, streams=False):
        return {"latency_s": latency, "first_result_s": first or latency, "streams": streams, "setup_s": 0.1, "rss_mb": latency, "label": str(latency), "calibration_s": slow}

    # Two operations, three passes; the last pass is partial.
    passes = [[op(1.0, 0.5, True), op(4.0)], [op(3.0, 0.7, True), op(6.0)], [op(2.0, 0.6, True)]]
    values, details = end_to_end(passes, [])
    assert details["unscaled"]["wall_s"] == 2.0 + 5.0
    assert values == pytest.approx(
        {
            "wall_s": (2.0 + 5.0) / 2,
            "op_p50_s": (2.0 * 5.0) ** 0.5 / 2,
            "op_tail_s": 5.0 / 2,  # the slowest quarter: one of two operations
            "first_result_s": 0.6 / 2,  # the streaming operation only
            "setup_s": 0.1 / 2,
            "peak_rss_mb": 6.0,  # not a time: never scaled
        }
    )
    assert details["passes"] == 3 and details["full_passes"] == 2 and details["slowest_op"] == "4.0" and details["tail_ops"] == 1
    assert details["pooled_samples"] == 5 and details["pooled_median_s"] == 3.0
