"""The process entry point ``cli.run``: the exit-time freeze keeps the exit contract.

``run`` freezes every surviving object into the collector's permanent
generation before the interpreter exits, so the final collection skips
them. Each call runs in a child process twice: through ``run``, as the
console script does, and as ``python -m chroma.cli`` runs it, through
``runpy``. The child's atexit hook reports on stderr whether it saw the
freeze. Exit codes and output must match the in-process ``main``, which
itself must never freeze.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chroma
from chroma.cli import main

SRC = str(Path(chroma.__file__).resolve().parent.parent)

CHILD = """
import atexit, gc, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr))
entry = sys.argv.pop(1)
if entry == "run":
    from chroma.cli import run
    run()
else:
    import runpy
    runpy.run_module("chroma.cli", run_name="__main__")
"""

FIXTURES = {
    "one.json": {"arities": {"1": 1}, "members": [[]]},
    "two.json": {"arities": {"1": 1}, "members": [[], [[1, 0]]]},
    "chain.json": {"arities": {"1": 1, "2": 1}, "members": [[], [[1, 0]], [[1, 0], [2, 0]]]},
}

# Calls and the exit code each must give.
CALLS = [
    (["rank", "--in", "one.json"], 0),
    (["spectra", "--diagrams", "two.json", "--lambda-max", "2"], 1),  # refuted at size 1
    (["rank", "--in", "missing.json"], 2),
    (["spectra", "--diagrams", "one.json", "--lambda-max", "x"], 2),  # a usage error
    (["spectra", "--diagrams", "chain.json", "--lambda-max", "2", "--budget", "1"], 3),
    (["rank", "-h"], 0),  # argparse's own exit
]


@pytest.fixture
def work(tmp_path, monkeypatch):
    for name, doc in FIXTURES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both processes
    return tmp_path


def in_process(argv, capsys) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child(entry: str, argv) -> subprocess.CompletedProcess:
    paths = [SRC, os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", CHILD, entry, *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
        capture_output=True,
        timeout=60,
    )


@pytest.mark.parametrize("entry", ["run", "runpy"])
@pytest.mark.parametrize("argv, code", CALLS, ids=[" ".join(argv) for argv, _ in CALLS])
def test_exit_code_output_and_atexit_hook(work, capsys, entry, argv, code):
    expected = in_process(argv, capsys)
    assert expected[0] == code
    proc = child(entry, argv)
    assert proc.returncode == code
    assert proc.stdout == expected[1].encode()
    # The hook runs after the freeze, and after everything the call printed.
    assert proc.stderr == (expected[2] + "frozen: True\n").encode()


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("argv", [argv for argv, _ in CALLS], ids=" ".join)
def test_main_never_freezes_and_restores_the_collector(work, capsys, collecting, argv):
    was_collecting = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if collecting else gc.disable)()
    try:
        in_process(argv, capsys)
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_collecting else gc.disable)()
