"""Lazy library modules: what each command runs, and the package's unchanged surface.

``import chroma`` registers every library module in ``sys.modules`` without
running it; a module runs on its first attribute access. A module that has
not run is still of LazyLoader's module class, so ``type(m) is
types.ModuleType`` tells the modules a process has executed. Each command
runs in a fresh child process, since this one has loaded everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import chroma
from chroma import cli, structures

SRC = str(Path(chroma.__file__).resolve().parent.parent)

LIBRARY = {"ordinal", "diagrams", "rank", "structures", "walpha", "constructions", "amalgamation"}

# The modules each call executes, besides ``cli`` and ``_record``. Only ``rank``,
# ``walpha-verify`` and an infinite amalgamation along a branch reach the ordinal
# arithmetic and the rank layer, and a failing call executes nothing past its failure.
TREE = {"diagrams"}
RANK = TREE | {"ordinal", "rank"}
STRUCTURES = TREE | {"structures"}
EXECUTED = {
    "prune": TREE,
    "quotient": TREE,
    "rank": RANK,
    "walpha-verify": RANK | {"walpha"},
    "member": STRUCTURES,
    "build": STRUCTURES | {"constructions"},
    "build-mono": STRUCTURES,  # a monochromatic model needs no splitting construction
    "spectra": STRUCTURES | {"amalgamation"},
    "amalgamate": STRUCTURES | {"amalgamation"},
    "amalgamate-branch": STRUCTURES | {"amalgamation", "ordinal", "rank"},
    "rank-missing-file": TREE,
}
# The exit codes of the calls that fail; every other call answers with 0 or 1.
EXITS = {"rank-missing-file": (2,)}

POINT = {"universe": [0], "colors": {"[0]": [1, 0]}}
SYSTEM = {"x": [], "a1": 0, "a2": 1, "c1": POINT, "c2": {"universe": [1], "colors": {"[1]": [1, 0]}}}
FIXTURES = {
    "two.json": {"arities": {"1": 1}, "members": [[], [[1, 0]]]},
    "point.json": POINT,
    "pair.json": {"m": 1, "stem": [[1, 0]], "pairs": [[[1, 0], [2, 0]]]},
    "mono.json": {"diagram": [[1, 0], [2, 0], [3, 0]], "n": 3},
    "system.json": SYSTEM,
    "chain.json": {"arities": {"1": 1, "2": 1}, "members": [[], [[1, 0]], [[1, 0], [2, 0]]]},
    "branch.json": {**SYSTEM, "branch": [[1, 0]]},
}
CALLS = {
    "prune": ["prune", "--in", "two.json", "--keep", "[[[1,0]]]"],
    "quotient": ["quotient", "--in", "two.json", "--wbar", "[[1,0]]"],
    "rank": ["rank", "--in", "two.json"],
    "walpha-verify": ["walpha-verify", "--alpha", "1", "--F", "0", "--max-arity", "2"],
    "member": ["member", "--structure", "point.json", "--diagrams", "two.json"],
    "build": ["build", "pair-split", "--in", "pair.json"],
    "build-mono": ["build", "mono", "--in", "mono.json"],
    "spectra": ["spectra", "--diagrams", "two.json", "--lambda-max", "2"],
    "amalgamate": ["amalgamate", "--system", "system.json", "--diagrams", "two.json"],
    "amalgamate-branch": [
        "amalgamate", "--system", "branch.json", "--diagrams", "chain.json", "--mode", "infinite",
    ],
    "rank-missing-file": ["rank", "--in", "missing.json"],
}

REPORT = """
import json, sys, types
chroma_modules = {n: m for n, m in sys.modules.items() if n.startswith("chroma.")}
print(json.dumps([sorted(n for n, m in chroma_modules.items() if type(m) is types.ModuleType), sorted(chroma_modules)]))
"""


def child(code: str, cwd=None) -> tuple[list, list]:
    """The executed and the registered ``chroma.*`` modules after ``code`` runs in a fresh process."""
    paths = [SRC, os.environ.get("PYTHONPATH")]
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code + REPORT],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return tuple(json.loads(run.stdout.splitlines()[-1]))


def qualified(modules) -> list:
    return sorted(f"chroma.{m}" for m in modules)


def test_importing_the_package_executes_no_module():
    executed, registered = child("import chroma")
    assert executed == []
    assert registered == qualified(LIBRARY)


def test_cardinals_work_after_a_bare_package_import():
    # ``Language.size`` and ``kappa`` read the ordinal arithmetic only when called.
    executed, _ = child(textwrap.dedent("""
        import chroma
        assert repr(chroma.Language.of({1: 2, 2: 3}).size()) == "FiniteCardinal(value=5)"
        assert repr(chroma.Language.of({1: 2}, repeat=True).size()) == "KappaCardinal(index=Ordinal[w*1])"
        assert repr(chroma.kappa(3)) == "FiniteCardinal(value=3)"
        assert repr(chroma.kappa(chroma.parse_ordinal("w^2"))) == "BethCardinal(index=Ordinal[w^2*1], base=None)"
    """))
    assert executed == qualified({"_record", "ordinal", "diagrams", "structures", "constructions"})


def test_importing_the_cli_executes_only_the_cli():
    executed, registered = child("import chroma.cli")
    assert executed == ["chroma.cli"]
    assert registered == qualified(LIBRARY | {"cli"})


@pytest.mark.parametrize("command", sorted(CALLS))
def test_each_command_executes_only_its_modules(command, tmp_path):
    for name, doc in FIXTURES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code = textwrap.dedent(f"""
        import contextlib, io
        from chroma.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main({CALLS[command]!r})
        assert code in {EXITS.get(command, (0, 1))!r}, code
    """)
    executed, registered = child(code, cwd=tmp_path)
    assert executed == qualified(EXECUTED[command] | {"cli", "_record"})
    assert registered == qualified(LIBRARY | {"cli", "_record"})


# Every name ``chroma`` bound at import when it imported its modules eagerly.
EXPORTED = {
    "ordinal": [
        "Ordinal", "CardinalExpr", "FiniteCardinal", "KappaCardinal", "BethCardinal",
        "PowerSetCardinal", "SupremumCardinal", "compare", "split", "fundamental_sequence",
        "bound_index", "parse_ordinal", "render_ordinal",
    ],
    "diagrams": [
        "RelSymbol", "Diagram", "Language", "DiagramSet", "FullTree", "make_diagram",
        "validate", "prune", "quotient",
    ],
    "rank": [
        "er_rank", "rank_table", "rank_witness_chain", "max_model_bound", "InfiniteDiagram",
        "BranchFamily", "infinite_diagram_consistent", "has_infinite_rank_surrogate", "RankVerdict",
    ],
    "structures": [
        "ColoringStructure", "TripleExtension", "is_monochromatic", "diagram_of",
        "monochromatic_table", "in_class", "monochromatic_model", "extend_triple", "restrict",
        "is_substructure",
    ],
    "amalgamation": [
        "SpecialSystem", "AmalgamResult", "dap_search", "ap_search", "dap_from_ap",
        "amalgamate_infinite", "amalgamate_quotient", "amalgamate_triple", "spectra_scan",
        "validate_system",
    ],
    "constructions": [
        "kappa", "BinaryStringUniverse", "delta", "delta_sequence", "s_pattern", "build_limit_sum",
        "build_pair_splitting", "build_k_splitting", "build_interval_splitting", "IntervalBlock",
    ],
}


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EXPORTED.items() for name in names]
)
def test_every_exported_name_resolves_to_its_module_binding(module, name):
    scope = {}
    exec(f"from chroma import {name}", scope)
    assert scope[name] is getattr(sys.modules[f"chroma.{module}"], name)
    assert name in dir(chroma)


def test_modules_and_version_are_package_attributes():
    from chroma import __version__, walpha

    assert __version__ == "0.1.0"
    for module in LIBRARY:
        assert getattr(chroma, module) is sys.modules[f"chroma.{module}"]
    assert walpha is sys.modules["chroma.walpha"]


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="module 'chroma' has no attribute 'no_such_name'"):
        chroma.no_such_name
    with pytest.raises(ImportError):
        exec("from chroma import no_such_name", {})
    # Names that only a module defines are not re-exported.
    assert not hasattr(chroma, "LatticeTooLarge")


def test_the_cli_reads_exported_names_from_their_modules():
    assert cli.in_class is structures.in_class
    with pytest.raises(AttributeError, match="module 'chroma.cli' has no attribute 'no_such_name'"):
        cli.no_such_name
    assert not hasattr(cli, "__path__")


@pytest.mark.parametrize("mode, loaded", [("exhaustive", False), ("sampled", True)])
def test_only_sampled_scans_load_random(mode, loaded, tmp_path):
    # ``python -S``: the site hooks of an installation may import ``random`` themselves.
    (tmp_path / "two.json").write_text(json.dumps(FIXTURES["two.json"]))
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from chroma.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["spectra", "--diagrams", "two.json", "--lambda-max", "2", "--mode", {mode!r}])
        assert code == 1, code
        print("random" in sys.modules)
    """)
    run = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert run.stdout == f"{loaded}\n"
