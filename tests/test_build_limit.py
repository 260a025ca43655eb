"""``build`` refuses a structure above ``LATTICE_LIMIT`` points before building it.

The size is read off the parameter block: ``n`` for ``mono``, 2^m points
for the three splittings, the summed component sizes for ``limit-sum``.
Over the limit, ``build`` exits 2 with one ``error:`` line naming the size
and the limit. The probes at the real limit run in a child process whose
address space is capped, so that a lost guard fails fast instead of
filling the machine.
"""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import chroma
from chroma.cli import _read_build, main
from chroma.diagrams import RelSymbol
from chroma.structures import LATTICE_LIMIT, monochromatic_model, structure_to_json

A, B = [1, 0], [1, 1]


def mono(n: int, length: int) -> dict:
    return {"diagram": [[k, 0] for k in range(1, length + 1)], "n": n}


def pair_split(m: int) -> dict:
    return {"m": m, "stem": [A], "pairs": [[A, [2, i]] for i in range(m)]}


def component(points: int, single: list) -> dict:
    """A monochromatic structure on ``points`` points whose singletons take ``single``."""
    diagram = (RelSymbol(*single),) + tuple(RelSymbol(k, 0) for k in range(2, points + 1))
    return structure_to_json(monochromatic_model(diagram, points))


def refusal(points, limit=LATTICE_LIMIT) -> str:
    return f"a structure on {points} points exceeds the limit of {limit} points"


def exactly(text: str) -> str:
    return f"^{re.escape(text)}$"


@pytest.mark.parametrize("limit", range(1, 10))
def test_the_splittings_are_refused_exactly_above_the_limit(limit, monkeypatch):
    monkeypatch.setattr(chroma.structures, "LATTICE_LIMIT", limit)
    for kind in ("pair-split", "k-split", "interval-split"):
        for m in range(6):
            params = {"m": m, "stem": [], "pairs": [], "components": [], "blocks": []}
            if 2**m > limit:
                with pytest.raises(ValueError, match=exactly(refusal(f"2^{m}", limit))):
                    _read_build(kind, params)
            else:
                _read_build(kind, params)  # the block is read, and its faults are left to the builder


def test_mono_and_limit_sum_are_refused_exactly_above_the_limit(monkeypatch):
    monkeypatch.setattr(chroma.structures, "LATTICE_LIMIT", 3)
    assert len(_read_build("mono", mono(3, 3))().universe) == 3
    with pytest.raises(ValueError, match=exactly(refusal(4, 3))):
        _read_build("mono", mono(4, 4))
    assert len(_read_build("limit-sum", {"components": [component(1, A), component(2, B)]})().universe) == 3
    with pytest.raises(ValueError, match=exactly(refusal(4, 3))):
        _read_build("limit-sum", {"components": [component(2, A), component(2, B)]})


def test_a_large_m_is_refused_without_computing_two_to_the_m(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(pair_split(0) | {"m": 10**30}))
    assert main(["build", "pair-split", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {refusal(f'2^{10**30}')}\n")


@pytest.mark.parametrize(
    "kind, params, size",
    [("mono", mono(30, 30), 30), ("pair-split", pair_split(5), "2^5")],
    ids=["mono-30", "pair-split-5"],
)
def test_probes_exit_2_in_a_small_address_space(kind, params, size, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(params))
    src = str(Path(chroma.__file__).parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    run = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "build", kind, "--in", str(path)],
        env=env, preexec_fn=limit, capture_output=True, text=True, timeout=30,
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {path}: {refusal(size)}\n")
