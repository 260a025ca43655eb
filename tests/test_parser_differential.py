"""The parser of the named command alone parses every call as the parser of all eight does.

A call whose first argument names a command gets a parser with only that
command's subparser. For each call of a corpus, that parser and the full one
must give the same namespace, the same ``error:`` text, or the same help text
and ``SystemExit(0)``. The corpus holds every benchmark fixture call at seeds
0-2 and, for each command, usage errors, abbreviations and help requests, each
after the command alone and after a valid call.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from chroma.cli import _COMMANDS, InputError, _build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402


def _fixture_calls() -> list[tuple[str, ...]]:
    calls = []
    with tempfile.TemporaryDirectory() as work:
        for workload in fixtures.WORKLOADS:
            for seed in range(3):
                out = Path(work) / f"{workload}-{seed}"
                out.mkdir()
                calls += [op.argv for op in fixtures.generate(workload, seed, out)]
    return calls


VALID = {
    "rank": ["rank", "--in", "t.json"],
    "member": ["member", "--structure", "s.json", "--diagrams", "t.json"],
    "amalgamate": ["amalgamate", "--system", "s.json", "--diagrams", "t.json", "--mode", "from-ap", "--budget", "5"],
    "build": ["build", "mono", "--in", "p.json"],
    "spectra": [
        "spectra", "--diagrams", "t.json", "--lambda-max", "2", "--mode", "sampled",
        "--trials", "3", "--budget", "9", "--seed", "4",
    ],
    "walpha-verify": ["walpha-verify", "--alpha", "w", "--F", "0,1", "--max-arity", "3", "--max-gamma", "2"],
    "quotient": ["quotient", "--in", "t.json", "--wbar", "[[1,0]]"],
    "prune": ["prune", "--in", "t.json", "--keep", "[]"],
}

# Appended to a command alone, whose required flags are then missing, and to a valid call.
TAILS = [
    [],
    ["--out", "o.json"],
    ["--bogus"],  # an unknown flag
    ["extra"],  # an unrecognized positional
    ["--budget", "x"],  # bad ints
    ["--lambda-max", "1.5"],
    ["--max-arity", "x"],
    ["--trials", "-1e3"],
    ["--mode", "bogus"],  # bad and good choices
    ["--mode", "ap"],
    ["--mode", "sampled"],
    ["--budget"],  # flags without a value
    ["--keep"],
    ["--wbar"],
    ["--out"],
    ["--lambda", "2"],  # abbreviated long options, some ambiguous
    ["--max-a", "2"],
    ["--tri", "2"],
    ["--s", "1"],
    ["--m", "ap"],
    ["--d", "t.json"],
    ["mono"],  # a build kind, valid and not
    ["bogus"],
    ["rank"],  # a second command
    ["-h"],
    ["--help"],
    ["--he"],
    ["-x"],
    ["--"],
]

# Calls that name no command: the full parser serves them either way.
TOP_LEVEL = [[], ["-h"], ["--help"], ["--he"], ["bogus"], ["Rank"], ["ran"], ["--out", "o.json", "rank"], ["--", "rank"], ["-x"]]

FIXTURE_CALLS = _fixture_calls()
CORPUS = (
    [list(argv) for argv in FIXTURE_CALLS]
    + [[command, *tail] for command in VALID for tail in TAILS]
    + [VALID[command] + tail for command in VALID for tail in TAILS]
    + TOP_LEVEL
)


def outcome(parser, argv):
    """What parsing ``argv`` gives: a namespace, an ``error:`` text, or an exit with its printed text."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            return "namespace", vars(parser.parse_args(list(argv))), printed.getvalue()
    except InputError as e:
        return "error", str(e), printed.getvalue()
    except SystemExit as e:
        return "exit", e.code, printed.getvalue()


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_the_corpus_covers_every_command_and_outcome():
    assert len(FIXTURE_CALLS) == 138
    assert {argv[0] for argv in CORPUS if argv} >= set(_COMMANDS)
    kinds = {outcome(_build_parser(), argv)[0] for argv in CORPUS}
    assert kinds == {"namespace", "error", "exit"}


@pytest.mark.parametrize("command", list(VALID))
def test_each_command_parses_as_with_every_subparser(command):
    calls = [argv for argv in CORPUS if argv and argv[0] == command]
    assert calls
    for argv in calls:
        assert outcome(_build_parser(command), argv) == outcome(_build_parser(), argv), argv


@pytest.mark.parametrize("argv", TOP_LEVEL, ids=repr)
def test_calls_naming_no_command_parse_with_every_subparser(argv):
    first = argv[0] if argv else None
    assert outcome(_build_parser(first), argv) == outcome(_build_parser(), argv)


def _subparsers(parser) -> list[str]:
    return list(parser._subparsers._group_actions[0].choices)


def test_a_named_command_builds_its_subparser_alone():
    every = list(_COMMANDS)
    assert every == ["rank", "member", "amalgamate", "build", "spectra", "walpha-verify", "quotient", "prune"]
    for command in every:
        assert _subparsers(_build_parser(command)) == [command]
    for first in (None, "-h", "bogus", "Rank", "--"):
        assert _subparsers(_build_parser(first)) == every


def test_a_typo_and_the_top_level_help_list_every_command():
    kind, text, _ = outcome(_build_parser("rnak"), ["rnak"])
    assert kind == "error"
    assert text.startswith("argument command: invalid choice: ")
    kind, code, printed = outcome(_build_parser("-h"), ["-h"])
    assert (kind, code) == ("exit", 0)
    for command in _COMMANDS:
        assert command in text
        assert f"    {command} " in printed
