"""Command-line front end: analyze, sweep, verify, lexprod, export.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 invalid input, 4 internal inconsistency (a library bug; for sweep,
any line carrying an error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from typing import Optional

from .complexes import independence_complex
from .errors import InconsistencyError
from .fields import FieldChoice
from .graphs import CirculantSpec, Graph, lex_product, make_circulant
from .homology import build_chain_complex
from .properties import DEFAULT_SHELL_BUDGET, PDIM_VERTEX_GUARD, full_report

ALL_CHECKS = ("wc", "cm", "bb", "vd", "sh", "pdim", "betti")


def _parse_set(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _parse_spec(text: str) -> CirculantSpec:
    """Parse 'N:s1,s2,...' (empty set allowed: 'N:')."""
    if ":" not in text:
        raise ValueError(f"expected 'N:s1,s2,...', got {text!r}")
    n_s, s_s = text.split(":", 1)
    return CirculantSpec(int(n_s), _parse_set(s_s))


def _parse_checks(text: str) -> tuple[str, ...]:
    checks = tuple(x.strip() for x in text.split(",") if x.strip())
    for ch in checks:
        if ch not in ALL_CHECKS:
            raise ValueError(f"unknown check {ch!r}; known: {','.join(ALL_CHECKS)}")
    return checks


def _report_for(g: Graph, args, checks) -> dict:
    report = full_report(
        g,
        FieldChoice.parse(args.field),
        shell_budget=args.budget,
        pdim_guard=(None if args.allow_large_pdim else PDIM_VERTEX_GUARD) if "pdim" in checks else 0,
        include_betti="betti" in checks,
    )
    return report.to_json_dict()


_HUMAN_KEYS = {
    "wc": ("well_covered",),
    "cm": ("cm", "cm_witness"),
    "bb": ("buchsbaum",),
    "vd": ("vertex_decomposable",),
    "sh": ("shellable",),
    "pdim": ("pdim", "depth"),
    "betti": ("betti",),
}


def _print_human(rep: dict, checks) -> None:
    print(f"graph:        {rep['graph']}")
    print(f"field:        {rep['field']}")
    print(f"alpha:        {rep['alpha']}")
    print(f"dim Ind:      {rep['dim']}")
    print(f"f-vector:     {tuple(rep['f'])}")
    print(f"h-vector:     {tuple(rep['h'])}")
    if not rep["h_nonnegative"]:
        print("warning:      h-vector has negative entries (rules out Cohen-Macaulayness)")
    for ch in checks:
        for key in _HUMAN_KEYS[ch]:
            val = rep.get(key)
            if key == "shellable" and val is None:
                val = "unknown (budget exhausted)"
            print(f"{key + ':':<14}{val}")


def cmd_analyze(args) -> int:
    spec = CirculantSpec(args.n, _parse_set(args.set))
    checks = _parse_checks(args.checks)
    rep = _report_for(make_circulant(spec), args, checks)
    if args.json:
        print(json.dumps(rep, sort_keys=True))
    else:
        _print_human(rep, checks)
    return 0


def cmd_lexprod(args) -> int:
    g = make_circulant(_parse_spec(args.g))
    h = make_circulant(_parse_spec(args.h))
    checks = _parse_checks(args.checks)
    prod = lex_product(g, h)
    rep = _report_for(prod, args, checks)
    rep["graph"] = f"{g.origin}[{h.origin}]"
    rep["edges"] = prod.edge_count()
    if args.json:
        print(json.dumps(rep, sort_keys=True))
    else:
        _print_human(rep, checks)
    return 0


def _sweep_case(params) -> dict:
    kind, key, n, s, field_text, budget = params
    entry = {"key": key, "n": n, "s": list(s)}
    try:
        report = full_report(
            make_circulant(CirculantSpec(n, s)),
            FieldChoice.parse(field_text),
            shell_budget=budget,
            pdim_guard=0,
        )
        entry.update(report.to_json_dict())
    except Exception as exc:  # recorded per line, never aborts the sweep
        entry["error"] = f"{type(exc).__name__}: {exc}"
    return entry


def cmd_sweep(args) -> int:
    cases = []
    if args.family == "interval":
        if args.d_min < 1:
            raise ValueError(f"--d-min must be at least 1, got {args.d_min}")
        for d in range(args.d_min, args.d_max + 1):
            n_hi = args.n_max if args.n_max is not None else 4 * d + 6
            n_lo = max(args.n_min if args.n_min is not None else 2 * d, 2 * d)
            for n in range(n_lo, n_hi + 1):
                cases.append(("interval", f"d={d},n={n}", n, tuple(range(1, d + 1)), args.field, args.budget))
    else:
        for two_n in range(4, args.max_2n + 1, 2):
            n = two_n // 2
            for a in range(1, n):
                cases.append(("cubic", f"2n={two_n},a={a}", two_n, tuple(sorted({a, n})), args.field, args.budget))
    with ExitStack() as stack:
        mapper = map
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs)).map
        # both maps keep input order, which is already the sorted case-key order
        errors = False
        for entry in mapper(_sweep_case, cases):
            print(json.dumps(entry, sort_keys=True), flush=True)
            errors = errors or "error" in entry
    return 4 if errors else 0


def cmd_verify(args) -> int:
    from .theorems import VerifyScope, verify_theorems  # loaded only for this subcommand

    scope = VerifyScope(
        d_max=args.d_max,
        max_two_n=args.max_2n,
        lex_factor_max=args.lex_max,
        h2_d_max=args.d,
        shell_budget=args.budget,
    )
    # verify_theorems rejects an unknown id, naming the known ones
    results = verify_theorems(scope, [args.theorem] if args.theorem else None)
    for res in results:
        if args.json:
            print(json.dumps(res.to_json_dict(), sort_keys=True))
        else:
            status = "PASS" if res.passed else "FAIL"
            print(f"{res.theorem_id:<10} {status}  cases={res.cases_run}  scope: {res.scope}")
            for ev in res.evidence:
                print(f"  d={ev['d']}: computed={ev['computed']} formula={ev['formula']} equal={ev['equal']}")
            for f in res.failures:
                print(f"  counterexample: {f}")
    return 1 if any(r.failures for r in results) else 0


def cmd_export(args) -> int:
    from .fileio import read_edges_v1, read_facets_v1, write_edges_v1, write_facets_v1, write_smat_v1  # loaded only for this subcommand

    if args.import_edges:
        with open(args.import_edges) as fh:
            g = read_edges_v1(fh.read())
        print(f"valid edges-v1: {g.vertex_count} vertices, {g.edge_count()} edges")
        return 0
    if args.import_facets:
        with open(args.import_facets) as fh:
            c = read_facets_v1(fh.read())
        print(f"valid facets-v1: {c.vertex_count} vertices, {len(c.facets)} facets, dim {c.dim()}")
        return 0
    if args.n is None:
        raise ValueError("export needs --n/--set or an --import-* file")
    g = make_circulant(CirculantSpec(args.n, _parse_set(args.set)))
    wrote = False
    if args.edges:
        with open(args.edges, "w") as fh:
            fh.write(write_edges_v1(g))
        wrote = True
    if args.facets:
        with open(args.facets, "w") as fh:
            fh.write(write_facets_v1(independence_complex(g)))
        wrote = True
    if args.smat:
        chain = build_chain_complex(independence_complex(g))
        i = args.smat_dim
        if i not in chain.boundaries:
            raise ValueError(f"no boundary matrix in dimension {i}")
        with open(args.smat, "w") as fh:
            fh.write(write_smat_v1(chain.boundaries[i], chain.face_count(i - 1)))
        wrote = True
    if not wrote:
        raise ValueError("export: nothing to do; pass --edges/--facets/--smat")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="circm", description="Exact decision procedures for circulant graph independence complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--field": dict(default="q", help="coefficient field: 'q' (exact rationals) or 'gf:P'"),
        "--budget": dict(type=int, default=DEFAULT_SHELL_BUDGET, help="node budget for the shellability search"),
        "--json": dict(action="store_true", help="machine-readable output"),
    }

    def common(p, *options):
        for option in options:
            p.add_argument(option, **shared[option])

    p = sub.add_parser("analyze", help="full property report for one circulant graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated connection set, e.g. 1,2,3 (empty for no edges)")
    p.add_argument("--checks", default=",".join(ALL_CHECKS), help=f"subset of {','.join(ALL_CHECKS)}")
    p.add_argument("--allow-large-pdim", action="store_true", help="lift the projective-dimension vertex guard when pdim is checked")
    common(p, "--field", "--budget", "--json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lexprod", help="analyze a lexicographical product of two circulants")
    p.add_argument("--g", required=True, help="left factor as N:s1,s2,...")
    p.add_argument("--h", required=True, help="right factor as N:s1,s2,...")
    p.add_argument("--checks", default="wc,cm")
    p.add_argument("--allow-large-pdim", action="store_true")
    common(p, "--field", "--budget", "--json")
    p.set_defaults(func=cmd_lexprod)

    p = sub.add_parser("sweep", help="stream one JSON report per graph in a family")
    p.add_argument("--family", choices=("interval", "cubic"), default="interval")
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, default=3)
    p.add_argument("--n-min", type=int, default=None, help="default 2d per d")
    p.add_argument("--n-max", type=int, default=None, help="default 4d+6 per d")
    p.add_argument("--max-2n", type=int, default=12, help="cubic family bound")
    # argparse converts a string default only when sweep is parsed, so a bad value exits 2 naming --jobs
    p.add_argument("--jobs", type=int, default=os.environ.get("CIRCM_JOBS", "1"))
    common(p, "--field", "--budget")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="verify classification theorems against the checkers")
    p.add_argument("--theorem", default=None, help="one theorem id (default: all)")
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--max-2n", type=int, default=12)
    p.add_argument("--lex-max", type=int, default=5)
    p.add_argument("--d", type=int, default=3, help="largest d for the H~_2 experiment")
    common(p, "--budget", "--json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="read/write edges-v1, facets-v1 and smat-v1 files")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--set", default="")
    p.add_argument("--edges", default=None, help="write the graph in edges-v1 format")
    p.add_argument("--facets", default=None, help="write the independence complex in facets-v1 format")
    p.add_argument("--smat", default=None, help="write one boundary matrix in smat-v1 format")
    p.add_argument("--smat-dim", type=int, default=1, help="which boundary matrix to dump")
    p.add_argument("--import-edges", default=None, help="validate an edges-v1 file")
    p.add_argument("--import-facets", default=None, help="validate a facets-v1 file")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
