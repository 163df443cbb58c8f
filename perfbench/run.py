"""circm benchmark: time the CLI and library end to end, check every answer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE] [--smoke]
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Each operation runs in a fresh interpreter (``child.py``), one at a time,
so module-level memos start cold as they do for a CLI user and the load
stays within two cores.  A run makes one full pass over the workload's
operations and then keeps going round them, in order, until the next
operation would end past S seconds.  A start of ``calibrate.py`` follows
every operation, and each time is scaled by it to the speed of a
reference machine.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics.  The last line of standard
output is the result; the line before it carries the details.  ``--out``
appends the run, with its environment, to a JSON-lines file;
``--compare`` reads two such files, parent first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import math
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from spans import aggregate
from workloads import WORKLOADS, Op, build_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
OP_TIMEOUT_S = 150
# Extra cold starts per run that only import circm, so that setup_s is a
# median over enough samples on every workload.
SETUP_PROBES = 10
# Median time of one calibrate.py start on the reference machine (2 vCPUs,
# Python 3.11.7).  A timing is scaled by this over the calibration made
# around it, so that it reads in seconds on that machine.
REFERENCE_CALIBRATION_S = 0.115
CALIBRATION_ANSWER = {"rank": 150, "subsets": 3060}
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
LAYERS = ("cli", "theorems", "properties", "complexes", "homology", "fields", "graphs")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(args) -> dict:
    revision = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True, timeout=30).stdout
        revision = head + ("-dirty" if dirty.strip() else "")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": revision,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_op(op, trace: bool) -> dict:
    """Run one operation in a fresh interpreter; time it and check its answer."""
    side = os.path.join(WORK, "side.json")
    if os.path.exists(side):
        os.remove(side)
    argv = [sys.executable, os.path.join(HERE, "child.py"), SRC, side, "1" if trace else "0", op.kind, *op.args]
    with open(os.path.join(WORK, "stderr.txt"), "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=CHILD_ENV, cwd=ROOT, text=True, start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        lines, first = [], None
        try:
            for line in proc.stdout:
                if first is None:
                    first = perf_counter()
                lines.append(line)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no operation running
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr_tail = err.read()[-2000:]
    side_data = {}
    if os.path.exists(side):
        with open(side) as fh:
            side_data = json.load(fh)
    try:
        reason = op.check(proc.returncode, lines)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable answer: {type(exc).__name__}: {exc}"
    if reason and stderr_tail.strip():
        reason += " | " + stderr_tail.strip().splitlines()[-1]
    return {
        "label": op.label,
        "latency_s": t1 - t0,
        "setup_s": side_data["import_done"] - t0 if "import_done" in side_data else None,
        "teardown_s": t1 - side_data["op_end"] if "op_end" in side_data else None,
        "first_result_s": (first if first is not None else t1) - t0,
        "rss_mb": usage.ru_maxrss / 1024,
        "rc": proc.returncode,
        "lines": len(lines),
        "answer_sha256": hashlib.sha256("".join(lines).encode()).hexdigest(),
        "error": reason,
        "known_defect": op.known_defect,
        "streams": op.streams,
        "side": side_data,
    }


def calibrate() -> float:
    """Seconds one start of calibrate.py takes now; it checks its answer too."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")], capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    seconds = perf_counter() - t0
    if proc.returncode != 0 or json.loads(proc.stdout) != CALIBRATION_ANSWER:
        raise RuntimeError(f"calibrate.py gave {proc.stdout!r}, expected {CALIBRATION_ANSWER}: {proc.stderr[-500:]}")
    return seconds


class Calibrated:
    """Runs operations one at a time, each one between two calibration starts.

    The machine's speed is taken as the geometric mean of the two starts
    around the operation, so a slow spell that covers the operation
    covers its calibration too.
    """

    def __init__(self) -> None:
        self.last = calibrate()

    def run(self, op, trace: bool = False) -> dict:
        r = run_op(op, trace)
        after = calibrate()
        r["calibration_s"] = math.sqrt(self.last * after)
        self.last = after
        return r


def run_timed(ops, seconds: float, runner: Calibrated) -> list[list[dict]]:
    """One full pass, then more operations in order until the next would end past ``seconds``.

    The last pass may be partial.  Whether an operation fits is judged by
    its latency in the pass before.
    """
    started = perf_counter()
    passes = [[runner.run(op) for op in ops]]
    while True:
        current = []
        for i, op in enumerate(ops):
            if perf_counter() - started + passes[-1][i]["latency_s"] + passes[-1][i]["calibration_s"] > seconds:
                if current:
                    passes.append(current)
                return passes
            current.append(runner.run(op))
        passes.append(current)


def _started(_rc: int, _out: list[str]) -> None:
    return None


SETUP_PROBE = Op("setup", "setup", (), _started)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it, as (value, percentile, samples).

    With fewer than 20 samples no percentile above the median qualifies,
    and the median is reported as the 50th percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - 10
    if rank < (n + 1) // 2:
        return statistics.median(xs), 50.0, n
    return xs[rank - 1], 100.0 * rank / n, n


def per_op_medians(passes: list[list[dict]], value) -> list[float]:
    """For each operation of the list, the median of ``value(result)`` over the passes that ran it."""
    return [statistics.median(value(p[i]) for p in passes if i < len(p)) for i in range(len(passes[0]))]


def geomean(xs: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def end_to_end(passes: list[list[dict]], probes: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics of one run.

    Every time is first scaled to the reference machine's speed: by
    REFERENCE_CALIBRATION_S over the calibration made around it.  On a
    shared host the same code runs up to 1.6 times slower for seconds or
    minutes at a time, and the calibration starts slow down with it.

    A workload mixes operations whose costs differ by up to 50 times, so a
    latency pooled over all of them sits on whichever few samples land in
    the middle, and moves from run to run.  Each operation's latency is
    therefore its median over the run's passes, and the metrics combine
    those per-operation medians, so every sample of the run counts: the
    tail is the slowest quarter of the operations, not the slowest one,
    which on analyze is a single sample.  The pooled median and tail, and
    the figures without scaling, are in the details.
    """
    ops = [r for p in passes for r in p]

    def metrics(scaled: bool) -> dict:
        def t(key: str):
            return lambda r: r[key] * REFERENCE_CALIBRATION_S / r["calibration_s"] if scaled else r[key]

        latency = per_op_medians(passes, t("latency_s"))
        first = per_op_medians(passes, t("first_result_s"))
        streams = [i for i, r in enumerate(passes[0]) if r["streams"]] or range(len(latency))
        return {
            "wall_s": sum(latency),
            "op_p50_s": geomean(latency),
            "op_tail_s": geomean(sorted(latency)[-math.ceil(len(latency) / 4) :]),
            "first_result_s": geomean([first[i] for i in streams]),
            "setup_s": statistics.median(map(t("setup_s"), (r for r in ops + probes if r["setup_s"] is not None))),
        }

    values = metrics(scaled=True)
    values["peak_rss_mb"] = max(r["rss_mb"] for r in ops)
    unscaled = metrics(scaled=False)
    latency = per_op_medians(passes, lambda r: r["latency_s"])
    pooled_tail, pooled_pct, pooled_n = tail([r["latency_s"] for r in ops])
    details = {
        "passes": len(passes),
        "full_passes": sum(len(p) == len(passes[0]) for p in passes),
        "slowest_op": passes[0][latency.index(max(latency))]["label"],
        "tail_ops": math.ceil(len(latency) / 4),
        "calibration_median_s": statistics.median(r["calibration_s"] for r in ops + probes),
        "unscaled": unscaled,
        "pooled_median_s": statistics.median(r["latency_s"] for r in ops),
        "pooled_tail_s": pooled_tail,
        "pooled_tail_percentile": pooled_pct,
        "pooled_samples": pooled_n,
        "setup_samples": sum(r["setup_s"] is not None for r in ops + probes),
    }
    return values, details


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    agg: dict[str, dict] = {}
    for r in traced:
        if "trace" not in r["side"]:
            continue
        for name, stats in aggregate(r["side"]["trace"]).items():
            into = agg.setdefault(name, {})
            for k, v in stats.items():
                into[k] = max(into.get(k, 0), v) if k == "max_rows" else into.get(k, 0) + v
        cache = r["side"]["faces_cache"]
        faces = agg.setdefault("complexes.faces", {})
        faces["cache_hits"] = faces.get("cache_hits", 0) + cache["hits"]
        faces["cache_misses"] = faces.get("cache_misses", 0) + cache["misses"]
    rank = agg.setdefault("fields.rank", {})
    for kind in ("q", "gf"):
        for k, v in agg.get(f"fields.rank_of_rows.{kind}", {}).items():
            if k in ("rows_in", "nnz_in", "rank_out"):
                rank[k] = rank.get(k, 0) + v
            elif k == "max_rows":
                rank[k] = max(rank.get(k, 0), v)
    agg["cli.sweep"] = {"lines": sum(r["lines"] for r in traced if r["label"].startswith("sweep"))}

    traced_wall = sum(r["latency_s"] for r in traced)
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, stats in agg.items():
        if "self_s" in stats:
            layer_s[name.split(".")[0]] += stats["self_s"]
    layer_s["setup"] = sum(r["setup_s"] or 0.0 for r in traced)
    # From the end of the operation until the process is reaped: writing
    # the spans and tearing the interpreter down.
    layer_s["teardown"] = sum(r["teardown_s"] or 0.0 for r in traced)
    layer_s["unaccounted"] = traced_wall - sum(layer_s.values())
    for layer, seconds in layer_s.items():
        agg[f"layer.{layer}"] = {"share": 100.0 * seconds / traced_wall}
    untraced_wall = sum(r["latency_s"] for r in untraced)
    # Both passes scaled to the reference speed, as the end-to-end times are.
    agg["trace"] = {"overhead": sum(r["latency_s"] / r["calibration_s"] for r in traced) / sum(r["latency_s"] / r["calibration_s"] for r in untraced)}

    functions: dict[str, float] = {}
    for name, stats in agg.items():
        if "self_s" in stats:
            fn = name.rsplit(".", 1)[0] if name.startswith("fields.rank_of_rows.") else name
            functions[fn] = functions.get(fn, 0.0) + stats["self_s"]
    top_function = max(functions, key=functions.get)
    top_layer = max(LAYERS, key=layer_s.get)
    details = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "top_layer": top_layer,
        "top_layer_share_pct": agg[f"layer.{top_layer}"]["share"],
        "top_function": top_function,
        "top_function_share_pct": 100.0 * functions[top_function] / traced_wall,
        "unaccounted_share_pct": agg["layer.unaccounted"]["share"],
        "tracing_overhead_pct": 100.0 * (agg["trace"]["overhead"] - 1),
        "self_s": dict(sorted(functions.items(), key=lambda kv: -kv[1])),
    }
    return agg, details


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "circm", "__init__.py")):
        print(f"no circm sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(WORK, exist_ok=True)
    env = environment(args)
    traced_mode = args.trace == 1
    ops = build_ops(args.workload, args.seed, args.smoke, traced_mode)
    if traced_mode:
        runner = Calibrated()
        untraced = [[runner.run(op) for op in ops]]
        traced = [runner.run(op, trace=True) for op in ops]
        for plain, r in zip(untraced[0], traced):
            if plain["answer_sha256"] != r["answer_sha256"] and not r["error"]:
                r["error"] = "traced answer differs from the untraced one"
        all_ops = untraced[0] + traced
    else:
        run_op(SETUP_PROBE, False)  # warm-up: bytecode caches and file pages, untimed
        runner = Calibrated()
        untraced = run_timed(ops, 0 if args.smoke else args.seconds, runner)
        probes = [runner.run(SETUP_PROBE) for _ in range(2 if args.smoke else SETUP_PROBES)]
        all_ops = [r for p in untraced for r in p]

    failed = [r for r in all_ops if r["error"] and not r["known_defect"]]
    defects = [r for r in all_ops if r["error"] and r["known_defect"]]
    if traced_mode:
        values, details = per_layer(untraced[0], traced)
        declared = spec["per_layer"]
        lookup = lambda name: values.get(name.rsplit(".", 1)[0], {}).get(name.rsplit(".", 1)[1], 0)  # noqa: E731
    else:
        values, details = end_to_end(untraced, probes)
        declared = spec["end_to_end"]
        lookup = values.__getitem__
    metrics = {m["name"]: {"value": lookup(m["name"]), "unit": m["unit"]} for m in declared}
    details.update(
        ops_total=len(all_ops),
        ops_failed=len(failed) + len(defects),
        known_defects=sorted({f"{r['label']}: {r['known_defect']}" for r in defects}),
        failures=[f"{r['label']}: {r['error']}" for r in failed],
    )
    result = {"correct": not failed, "attempted": len(all_ops), "failed": len(failed), "metrics": metrics}
    if args.out:
        for r in all_ops:
            r.pop("side")
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"env": env, "details": details, "ops": all_ops, **result}) + "\n")
    print(json.dumps({"env": env, "details": details}))
    print(json.dumps(result))
    return 0


# --- compare mode -----------------------------------------------------------


def _read_runs(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(parent_path: str, change_path: str) -> int:
    """Per workload and metric: medians, quartiles, pair wins and a verdict."""
    spec = load_spec()
    parent, change = _read_runs(parent_path), _read_runs(change_path)
    workloads = sorted({r["env"]["workload"] for r in parent} & {r["env"]["workload"] for r in change})
    print(f"{'workload':<9} {'metric':<15} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} {'wins':>6}  verdict")
    for w in workloads:
        runs = {}
        for side, rows in (("parent", parent), ("change", change)):
            runs[side] = sorted((r for r in rows if r["env"]["workload"] == w and r["env"]["trace"] == 0), key=lambda r: r["env"]["seed"])
        if not runs["parent"] or not runs["change"]:
            continue
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            pv = [r["metrics"][name]["value"] for r in runs["parent"]]
            cv = [r["metrics"][name]["value"] for r in runs["change"]]
            pq, cq = _quartiles(pv), _quartiles(cv)
            sign = 1 if lower else -1
            pairs = list(zip(pv, cv))
            wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
            spread = max((pq[2] - pq[0]) / pq[1], (cq[2] - cq[0]) / cq[1])
            worse = sign * (cq[1] - pq[1]) / pq[1]
            all_better = all(sign * (p - c) > 0 for p in pv for c in cv)
            if spread > bound and not all_better:
                verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
            elif wins >= 0.9 * len(pairs) and sign * (pq[1] - cq[1]) > pq[2] - pq[0]:
                verdict = f"improved by {-worse:.1%}"
            elif worse > bound:
                verdict = f"REGRESSED by {worse:.1%} (bound {bound:.0%})"
            else:
                verdict = f"within bound ({worse:+.1%})"
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"  # noqa: E731
            print(f"{w:<9} {name:<15} {fmt(pq):<30} {fmt(cq):<30} {wins:>2}/{len(pairs):<3}  {verdict}")
        failed = [sum(r["failed"] for r in runs[s]) for s in ("parent", "change")]
        defects = [sum(len(r["details"]["known_defects"]) for r in runs[s]) for s in ("parent", "change")]
        print(f"{w:<9} {'failed ops':<15} {failed[0]:<30} {failed[1]:<30}        known-defect failures {defects[0]} -> {defects[1]}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this JSON-lines file")
    parser.add_argument("--smoke", action="store_true", help="tiny operations, one pass: checks the harness, not the speed")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two --out files")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
