"""Spans around the public functions of circm's layers.

``Tracer.install`` wraps each traced function at every module attribute
and dict entry of the ``circm`` package that names it: ``properties``
imports ``reduced_betti`` by name, ``cli`` imports ``full_report``, and
``THEOREM_VERIFIERS`` is a dict.  A span records its name, start, end and
parent; spans stay in memory until the operation ends.  ``aggregate``
turns one operation's spans into calls, self time and counters per name.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, function) -> counter hook run on (args, result) after the span.
TRACED = {
    ("fields", "rank_of_rows"): lambda a, r: {"rows_in": len(a[0]), "nnz_in": sum(map(len, a[0])), "rank_out": r},
    ("homology", "kernel_rank_of"): None,
    ("homology", "build_chain_complex"): lambda a, r: {
        "basis_faces": sum(map(len, r.bases.values())),
        "boundary_nnz": sum(len(col) for cols in r.boundaries.values() for col in cols),
    },
    ("homology", "reduced_betti"): lambda a, r: {"nonacyclic": int(any(v for _, v in r.by_dim))},
    ("complexes", "faces"): lambda a, r: {"faces_out": len(r)},
    ("complexes", "independence_complex"): lambda a, r: {"facets": len(r.facets)},
    ("complexes", "link"): None,
    ("complexes", "is_well_covered"): None,
    ("complexes", "f_vector"): None,
    ("properties", "reisner_violation"): None,
    ("properties", "buchsbaum_violation"): None,
    ("properties", "projective_dimension"): None,
    ("properties", "is_vertex_decomposable"): None,
    ("properties", "is_shellable"): lambda a, r: {"nodes": r.nodes, "unknown": int(r.status is None)},
    ("properties", "full_report"): None,
    ("graphs", "make_circulant"): None,
    ("graphs", "lex_product"): None,
    ("graphs", "connected_components"): None,
    ("graphs", "is_isomorphic_small"): None,
    ("cli", "main"): None,
}
# Spans whose reduced_betti descendants are counted: one per link for
# Reisner and Buchsbaum, one per induced subcomplex for Hochster's pdim.
BETTI_CONSUMERS = {
    "properties.reisner_violation": "links",
    "properties.buchsbaum_violation": "links",
    "properties.projective_dimension": "subcomplexes",
}


def _verifier_cases(a, r) -> dict:
    return {"cases": r.cases_run}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, counters]
        self._stack = [-1]

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        split_by_field = name == "fields.rank_of_rows"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{'q' if args[1].kind == 'rational' else 'gf'}" if split_by_field else name
            rec = [span_name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package names it."""
        import circm.cli  # noqa: F401  (cli.main is traced too)
        import circm.theorems

        targets = {}
        for (mod, fname), count in TRACED.items():
            fn = getattr(sys.modules[f"circm.{mod}"], fname)
            targets[id(fn)] = self.wrap(f"{mod}.{fname}", fn, count)
        for tid, fn in circm.theorems.THEOREM_VERIFIERS.items():
            targets[id(fn)] = self.wrap(f"theorems.verify_{tid}", fn, _verifier_cases)
        modules = [m for name, m in sys.modules.items() if name == "circm" or name.startswith("circm.")]
        for module in modules:
            space = vars(module)
            for attr, value in list(space.items()):
                if id(value) in targets:
                    space[attr] = targets[id(value)]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in targets:
                            value[k] = targets[id(v)]

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}


def aggregate(dumped: dict) -> dict[str, dict]:
    """Calls, self time and summed counters per span name of one operation."""
    names, spans = dumped["names"], dumped["spans"]
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    out: dict[str, dict] = {}
    for i, (ni, _, _, parent, counters) in enumerate(spans):
        name = names[ni]
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += self_s[i]
        for k, v in (counters or {}).items():
            if k == "rows_in":
                agg["max_rows"] = max(agg.get("max_rows", 0), v)
            agg[k] = agg.get(k, 0) + v
        if name == "homology.reduced_betti":
            while parent >= 0 and names[spans[parent][0]] not in BETTI_CONSUMERS:
                parent = spans[parent][3]
            if parent >= 0:
                consumer = names[spans[parent][0]]
                agg_c = out.setdefault(consumer, {"calls": 0, "self_s": 0.0})
                key = BETTI_CONSUMERS[consumer]
                agg_c[key] = agg_c.get(key, 0) + 1
                if key == "subcomplexes":
                    agg_c["nonacyclic"] = agg_c.get("nonacyclic", 0) + counters["nonacyclic"]
    return out
