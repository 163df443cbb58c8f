"""Start-up cost of a circm process: the package loads a submodule only
when a name from it is first used, and the record classes are plain
slotted classes, so analyze never imports dataclasses, fractions, the
theorem verifiers or the file formats."""

import importlib
import json
import pickle
import subprocess
import sys

import pytest

import circm
from circm import (
    BettiTable,
    CirculantSpec,
    Complex,
    CubicDecomposition,
    FamilyStatus,
    FHVectors,
    FieldChoice,
    Graph,
    H2Evidence,
    OctahedronWitness,
    ShellabilityResult,
    VerifyScope,
)
from circm.cli import main

ANALYZE_THEN_LIST_MODULES = """
import json, sys
import circm, circm.cli
rc = circm.cli.main(["analyze", "--n", "10", "--set", "1,2", "--json"])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def test_analyze_loads_no_module_it_does_not_run():
    proc = subprocess.run([sys.executable, "-c", ANALYZE_THEN_LIST_MODULES], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report, last = proc.stdout.splitlines()
    assert json.loads(report)["graph"] == "C10(1,2)"
    done = json.loads(last)
    assert done["rc"] == 0
    loaded = set(done["modules"])
    assert not loaded & {"dataclasses", "fractions", "circm.theorems", "circm.fileio"}
    assert {"circm.properties", "circm.homology"} <= loaded


SWEEP_THEN_LIST_MODULES = """
import json, sys
import circm.cli
rc = circm.cli.main(["sweep", "--family", "cubic", "--max-2n", "6", "--jobs", "2"])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def test_a_parallel_sweep_loads_no_process_pool():
    proc = subprocess.run([sys.executable, "-c", SWEEP_THEN_LIST_MODULES], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    assert [json.loads(line)["key"] for line in lines] == ["2n=4,a=1", "2n=6,a=1", "2n=6,a=2"]
    done = json.loads(last)
    assert done["rc"] == 0
    loaded = set(done["modules"])
    assert not {m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")}


def test_every_export_is_its_modules_definition():
    for name in circm.__all__:
        value = getattr(circm, name)
        if name in circm._EXPORTS.values():
            assert value is sys.modules[f"circm.{name}"]
            continue
        module = importlib.import_module(f"circm.{circm._EXPORTS[name]}")
        assert value is getattr(module, name)
        # defined there, not imported there from another module
        assert value.__module__ == module.__name__, name


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from circm import *", namespace)
    assert set(circm.__all__) <= set(namespace)
    assert set(circm.__all__) <= set(dir(circm))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        circm.nope


RP1 = Complex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
# one factory per formerly frozen record class: each call builds a new, equal instance
FROZEN = {
    "CirculantSpec": lambda: CirculantSpec(6, (1, 3)),
    "Graph": lambda: Graph(adj=(2, 1), labels=(1, 2)),
    "CubicDecomposition": lambda: CubicDecomposition(2, 2, CirculantSpec(4, (1, 2))),
    "Complex": lambda: Complex.from_facets(3, [[1, 2], [3]]),
    "FHVectors": lambda: FHVectors(1, (1, 3, 2), (1, 1, 0)),
    "FieldChoice": lambda: FieldChoice.gf(7),
    "BettiTable": lambda: BettiTable(((-1, 0), (0, 1))),
    "ShellabilityResult": lambda: ShellabilityResult(True, (frozenset({1}),), 3),
    "FamilyStatus": lambda: FamilyStatus(8, 2, True, True, False),
    "OctahedronWitness": lambda: OctahedronWitness((1, 2, 3, 4, 5, 6), {0: 1}),
    "H2Evidence": lambda: H2Evidence(3, 10, 10, True),
    "VerifyScope": lambda: VerifyScope(d_max=2),
}
FROZEN_CLASSES = {type(make()) for make in FROZEN.values()}
# the classes whose instances are compared or hashed by value
BY_VALUE = {"Complex", "FieldChoice"}


def fields(obj):
    """The record's fields, nested records included, for comparing copies."""
    if isinstance(obj, tuple(FROZEN_CLASSES)):
        return type(obj), tuple(fields(getattr(obj, name)) for name in type(obj).__slots__)
    return obj


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_reject_assignment(name):
    obj = FROZEN[name]()
    first = type(obj).__slots__[0]
    with pytest.raises(AttributeError, match="immutable"):
        setattr(obj, first, getattr(obj, first))
    with pytest.raises(AttributeError, match="immutable"):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_equal_records_hash_equal(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert (a == b) is (name in BY_VALUE)
    assert a == a and hash(a) == hash(a)
    if name in BY_VALUE:
        assert hash(a) == hash(b) and len({a, b}) == 1
        other = RP1 if name == "FieldChoice" else FieldChoice.rational()
        assert a != other  # a record of another class


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_survive_a_pickle(name):
    obj = FROZEN[name]()
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj) and fields(copy) == fields(obj)


def test_unknown_theorem_id_exits_2_naming_the_known_ids(capsys):
    assert main(["verify", "--theorem", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown theorem id 'bogus'" in err
    for tid in ("brown41", "main", "buchsbaum", "cubic", "lexwc", "lemma-h2"):
        assert repr(tid) in err
