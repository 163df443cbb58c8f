"""The operations of each workload and the checks of their answers.

An operation is one ``circm`` CLI invocation or one library call, run in
a fresh interpreter by ``child.py``.  Every operation carries a check
that turns its exit code and standard output into ``None`` (right
answer) or a reason string (wrong answer or failure).

Expected answers come from closed forms where the paper or the
literature gives one, and otherwise from values pinned here, taken from
the seed commit's output.  The closed forms are written out again in
this file instead of being imported from ``circm``: the checker must not
share code with what it checks, and the benchmark process never imports
the package it times.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

# Primes near 2^15: GF(p) ranks cost the same for each, and the reduced
# homology of the complexes drawn here has no torsion, so the answer
# does not depend on which one a seed picks.
PRIMES = (31991, 32003, 32009, 32027, 32029, 32051)

CHECK_KEYS = {
    "wc": "well_covered",
    "cm": "cm",
    "bb": "buchsbaum",
    "vd": "vertex_decomposable",
    "sh": "shellable",
    "pdim": "pdim",
}
DEFAULT_CHECKS = ("wc", "cm", "bb", "vd", "sh", "pdim")

Check = Callable[[int, list[str]], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` is "betti" (library call), "cli" or "setup" (start-up only)."""

    label: str
    kind: str
    args: tuple[str, ...]
    check: Check
    # True for a command that streams its results line by line (sweep).
    streams: bool = False
    # Non-empty when the operation reproduces a documented defect of the
    # program; its failure is reported as such instead of in ``failed``.
    known_defect: str = ""


# --- closed forms ---------------------------------------------------------


def kozlov_betti(n: int) -> dict[int, int]:
    """Ind(C_n(1)) is S^{k-1} v S^{k-1} for n = 3k and S^{k-1} for n = 3k +- 1."""
    k = (n + 1) // 3
    return {k - 1: 2 if n % 3 == 0 else 1}


def cross_polytope_betti(m: int) -> dict[int, int]:
    """Ind(C_{2m}(m)) is the boundary of the m-dimensional cross-polytope."""
    return {m - 1: 1}


def interval_verdicts(n: int, d: int) -> dict:
    """Classification of C_n(1..d) (Brown et al.; CM = VD = shellable)."""
    cm = n <= 3 * d + 2 and n != 2 * d + 2
    return {
        "well_covered": n <= 3 * d + 2 or n == 4 * d + 3,
        "cm": cm,
        "buchsbaum": cm or n in (2 * d + 2, 4 * d + 3),
        "vertex_decomposable": cm,
        "shellable": cm,
    }


def cubic_cm(two_n: int, a: int) -> bool:
    """C_{2n}(a, n) is Cohen-Macaulay iff 2n / gcd(a, 2n) is 3 or 4."""
    return two_n // math.gcd(a, two_n) in (3, 4)


def closed_form_verdicts(n: int, s: tuple[int, ...]) -> dict:
    if s == tuple(range(1, len(s) + 1)) and s:
        return interval_verdicts(n, len(s))
    if n % 2 == 0 and s == (n // 2,):
        return {key: True for key in ("well_covered", "cm", "buchsbaum", "vertex_decomposable", "shellable")} | {"pdim": n // 2}
    if n % 2 == 0 and len(s) == 2 and s[1] == n // 2:
        return {"cm": cubic_cm(n, s[0])}
    return {}


# --- pinned values ----------------------------------------------------------

with open(os.path.join(HERE, "analyze_pool.json")) as _fh:
    _POOL = json.load(_fh)
# Verdicts of `circm analyze --json` (field q) at the seed commit for every
# C_n(S) with 10 <= n <= 11 and |S| >= 2.  That is the analyze seed pool.
POOL_VERDICTS = {key: dict(zip(_POOL["keys"], row)) for key, row in _POOL["graphs"].items()}

# Values with no closed form, pinned from the seed commit.
PINNED_VERDICTS = {
    "14:1": {"pdim": 9},
    "16:1,2": {"pdim": 12},
    "13:1": {"pdim": 9},
    "11:1,2": {"pdim": 9},
    "16:1,3,4,5,7,8": {"well_covered": True, "cm": False, "buchsbaum": True, "vertex_decomposable": False, "shellable": False, "pdim": 15},
}
PINNED_BETTI = {"22:1,2": {4: 43}}
# dim H~_2 of Ind(C_{4d+3}(1..d)) for d = 1..6, as `verify` reports it.
PINNED_H2 = (0, 0, 5, 19, 46, 90)


def _key(n: int, s: tuple[int, ...]) -> str:
    return f"{n}:{','.join(map(str, s))}"


def expected_verdicts(n: int, s: tuple[int, ...]) -> dict:
    out = dict(POOL_VERDICTS.get(_key(n, s), {}))
    out.update(PINNED_VERDICTS.get(_key(n, s), {}))
    out.update(closed_form_verdicts(n, s))
    return out


def expected_betti(n: int, s: tuple[int, ...]) -> dict[int, int]:
    if s == (1,):
        return kozlov_betti(n)
    if n % 2 == 0 and s == (n // 2,):
        return cross_polytope_betti(n // 2)
    return PINNED_BETTI[_key(n, s)]


# --- answer checks ----------------------------------------------------------


def _json_lines(out: list[str]) -> list[dict]:
    return [json.loads(line) for line in out if line.strip()]


def betti_check(n: int, s: tuple[int, ...]) -> Check:
    want = expected_betti(n, s)

    def check(rc: int, out: list[str]) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        got = {int(k): v for k, v in _json_lines(out)[-1]["betti"].items() if v}
        return None if got == want else f"reduced Betti numbers {got}, expected {want}"

    return check


def analyze_check(n: int, s: tuple[int, ...], checks: tuple[str, ...]) -> Check:
    verdicts = expected_verdicts(n, s)
    want = {CHECK_KEYS[c]: verdicts[CHECK_KEYS[c]] for c in checks if CHECK_KEYS[c] in verdicts}
    if not want:
        raise ValueError(f"no expected answer for C{n}({s}) under checks {checks}")

    def check(rc: int, out: list[str]) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        reports = _json_lines(out)
        if len(reports) != 1 or "error" in reports[0]:
            return f"expected one report line, got {out[:2]}"
        bad = {k: reports[0].get(k) for k, v in want.items() if reports[0].get(k) != v}
        return None if not bad else f"got {bad}, expected {({k: want[k] for k in bad})}"

    return check


def sweep_check(max_two_n: int) -> Check:
    keys = [(two_n, a) for two_n in range(4, max_two_n + 1, 2) for a in range(1, two_n // 2)]

    def check(rc: int, out: list[str]) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        lines = _json_lines(out)
        if [line["key"] for line in lines] != [f"2n={t},a={a}" for t, a in keys]:
            return f"expected {len(keys)} cases in order, got {len(lines)} lines"
        for line, (two_n, a) in zip(lines, keys):
            if "error" in line:
                return f"{line['key']}: {line['error']}"
            if line["cm"] != cubic_cm(two_n, a):
                return f"{line['key']}: cm={line['cm']}, expected {cubic_cm(two_n, a)}"
        return None

    return check


def _circulant_specs(max_n: int) -> int:
    return sum(2 ** (n // 2) for n in range(1, max_n + 1))


def verify_check(d_max: int, max_two_n: int, lex_max: int, h2_d: int) -> Check:
    family = sum(2 * d + 7 for d in range(1, d_max + 1))  # n = 2d .. 4d+6
    cases = {
        "brown41": family,
        "main": family,
        "buchsbaum": family,
        "cubic": sum(two_n // 2 - 1 for two_n in range(4, max_two_n + 1, 2)),
        "lexwc": _circulant_specs(lex_max) ** 2,
        "lemma-h2": h2_d,
    }

    def check(rc: int, out: list[str]) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        results = _json_lines(out)
        if [r["theorem_id"] for r in results] != list(cases):
            return f"theorems {[r['theorem_id'] for r in results]}, expected {list(cases)}"
        for r in results:
            if r["failures"] or r["cases_run"] != cases[r["theorem_id"]]:
                return f"{r['theorem_id']}: cases_run={r['cases_run']} failures={r['failures'][:2]}"
            if r["theorem_id"] == "lemma-h2":
                got = tuple(ev["computed"] for ev in r["evidence"])
                if got != PINNED_H2[: len(got)] or len(got) != h2_d:
                    return f"H~_2 evidence {got}, expected {PINNED_H2[:h2_d]}"
        return None

    return check


# --- operation builders -------------------------------------------------------


def betti_op(n: int, s: tuple[int, ...], field: str) -> Op:
    return Op(f"betti C{n}({','.join(map(str, s))}) {field}", "betti", (str(n), ",".join(map(str, s)), field), betti_check(n, s))


def analyze_op(n: int, s: tuple[int, ...], *extra: str, known_defect: str = "") -> Op:
    args = ("analyze", "--json", "--n", str(n), "--set", ",".join(map(str, s))) + extra
    checks = DEFAULT_CHECKS
    if "--checks" in extra:
        checks = tuple(extra[extra.index("--checks") + 1].split(","))
    return Op(" ".join(args[2:]), "cli", args, analyze_check(n, s, checks), known_defect=known_defect)


def sweep_op(max_two_n: int, jobs: int, prime: int) -> Op:
    args = ("sweep", "--family", "cubic", "--max-2n", str(max_two_n), "--jobs", str(jobs), "--field", f"gf:{prime}")
    return Op(" ".join(args), "cli", args, sweep_check(max_two_n), streams=True)


def verify_op(d_max: int, max_two_n: int, lex_max: int, h2_d: int) -> Op:
    args = ("verify", "--d-max", str(d_max), "--max-2n", str(max_two_n), "--lex-max", str(lex_max), "--d", str(h2_d), "--json")
    return Op(" ".join(args), "cli", args, verify_check(d_max, max_two_n, lex_max, h2_d))


BUDGET_DEFECT = "analyze with a small --budget raises InconsistencyError (vertex decomposable must imply shellable); ROADMAP item 4"


def betti_ops(rng: random.Random, smoke: bool) -> list[Op]:
    if smoke:
        return [betti_op(9, (1,), "q"), betti_op(8, (4,), f"gf:{rng.choice(PRIMES)}")]
    pinned = [
        betti_op(18, (1,), "q"),
        betti_op(19, (1,), "q"),
        betti_op(20, (1,), "gf:32003"),
        betti_op(16, (8,), "gf:32003"),
        betti_op(22, (1, 2), "q"),
        betti_op(22, (1, 2), "gf:32003"),
    ]
    # Draws are C17(1), the light end of the pool, two over q and two over
    # GF(p).  C18(1) to C20(1) and C16(8) are pinned above: drawing C20(1)
    # would move a seed's wall time by half.  A fixed split of the fields
    # keeps the seed from moving the latencies through the field choice.
    draws = [betti_op(17, (1,), field) for field in ("q", "q", f"gf:{rng.choice(PRIMES)}", f"gf:{rng.choice(PRIMES)}")]
    return pinned + draws


def analyze_ops(rng: random.Random, smoke: bool) -> list[Op]:
    # Pool graphs take 0.1-0.2 s each, mostly interpreter start-up.  Twelve
    # of them give small calls, where per-call overhead matters, most of
    # the weight in the typical latency (op_p50_s).  The pool stops at
    # n = 11: some graphs on 12 and 13 vertices take up to 0.6 s, and with
    # them the seed's draws would move the latency with the seed.
    pool = sorted(POOL_VERDICTS)
    draws = []
    for key in rng.sample(pool, 12):
        n, s = key.split(":")
        draws.append(analyze_op(int(n), tuple(int(x) for x in s.split(","))))
    if smoke:
        return [analyze_op(8, (4,)), analyze_op(9, (1, 2), "--checks", "wc,cm,bb,vd,sh")] + draws[:2]
    # The heaviest operation goes first: a 40-second run makes one pass
    # and part of a second, and the part then times it a second time.
    pinned = [
        analyze_op(16, (1, 3, 4, 5, 7, 8)),
        analyze_op(16, (1, 2)),
        analyze_op(14, (1,)),
        analyze_op(12, (6,)),
        analyze_op(14, (7,), "--checks", "wc,cm,bb,vd,sh"),
        analyze_op(13, (1,), "--field", "gf:32003"),
        analyze_op(11, (1, 2), "--field", "gf:32003"),
        analyze_op(10, (1, 4, 5)),
        analyze_op(12, (6,), "--checks", "cm", "--budget", "10", known_defect=BUDGET_DEFECT),
    ]
    return pinned + draws


def families_ops(rng: random.Random, smoke: bool, traced: bool) -> list[Op]:
    # A traced run keeps every span in one process, so its sweep has no pool.
    jobs = 1 if traced else 2
    prime = rng.choice(PRIMES)
    if smoke:
        return [sweep_op(10, jobs, prime), verify_op(2, 8, 3, 3)]
    return [sweep_op(18, jobs, prime), verify_op(6, 16, 6, 6)]


WORKLOADS = {
    "betti": lambda rng, smoke, traced: betti_ops(rng, smoke),
    "analyze": lambda rng, smoke, traced: analyze_ops(rng, smoke),
    "families": families_ops,
}


def build_ops(workload: str, seed: int, smoke: bool, traced: bool) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed), smoke, traced)
