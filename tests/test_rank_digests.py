"""Byte identity of the `ranks` workload's outputs against the benchmark's pinned digests.

The benchmark's `ranks` fixtures are generated with `bench/fixtures.py`
(imported read-only) and every call (`rank`, `prune`, `quotient` and
`walpha-verify`) runs through the CLI; the sha256 of each output must equal
the digest recorded in `bench/digests.json`.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from chroma.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402

DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("variant", range(fixtures.VARIANTS))
def test_rank_calls_match_pinned_digests(variant, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = fixtures.generate("ranks", variant, tmp_path)
    assert len(ops) == 7
    for op in ops:
        out = Path("out") / f"{op.label}.json"
        assert main([*op.argv, "--out", str(out)]) == 0, op.label
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == DIGESTS[op.ctx["digest"]], op.label
