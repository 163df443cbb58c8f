"""Exact-arithmetic toolkit for Cohen-Macaulay and related properties of
circulant graphs, decided through their independence complexes.

Each exported name is imported from its submodule on first use (PEP 562),
so a process loads only the modules it needs.
"""

# exported name -> the submodule that defines it
_EXPORTS = {
    "Complex": "complexes",
    "FHVectors": "complexes",
    "alpha": "complexes",
    "faces": "complexes",
    "family_f_vector": "complexes",
    "f_vector": "complexes",
    "independence_complex": "complexes",
    "is_well_covered": "complexes",
    "link": "complexes",
    "GuardError": "errors",
    "InconsistencyError": "errors",
    "FieldChoice": "fields",
    "CirculantSpec": "graphs",
    "CubicDecomposition": "graphs",
    "Graph": "graphs",
    "circulant": "graphs",
    "connected_components": "graphs",
    "cubic_decompose": "graphs",
    "induced_subgraph": "graphs",
    "interval_circulant": "graphs",
    "is_isomorphic_small": "graphs",
    "lex_product": "graphs",
    "make_circulant": "graphs",
    "BettiTable": "homology",
    "ChainComplexData": "homology",
    "build_chain_complex": "homology",
    "kernel_rank_of": "homology",
    "reduced_betti": "homology",
    "PropertyReport": "properties",
    "ShellabilityResult": "properties",
    "full_report": "properties",
    "is_buchsbaum": "properties",
    "is_cohen_macaulay": "properties",
    "is_shellable": "properties",
    "is_vertex_decomposable": "properties",
    "projective_dimension": "properties",
    "reisner_violation": "properties",
    "FamilyStatus": "theorems",
    "H2Evidence": "theorems",
    "OctahedronWitness": "theorems",
    "VerifyScope": "theorems",
    "build_octahedron_list": "theorems",
    "expected_cubic_cm": "theorems",
    "expected_family_status": "theorems",
    "h2_equality_experiment": "theorems",
    "octahedron_witness": "theorems",
    "verify_kernel_rank": "theorems",
    "verify_theorems": "theorems",
}

# the exported names and the submodules that define them
__all__ = sorted({*_EXPORTS, *_EXPORTS.values()})


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in __all__:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
