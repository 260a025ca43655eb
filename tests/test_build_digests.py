"""Byte identity of the four `build` kinds against the benchmark's pinned digests.

The benchmark's `models` fixtures are generated with `bench/fixtures.py`
(imported read-only) and `build pair-split`, `k-split`, `interval-split`
and `limit-sum` run through the CLI; the sha256 of each output must equal
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
LABELS = ("build_pair_split", "build_k_split", "build_interval_split", "build_limit_sum")


@pytest.mark.parametrize("variant", range(fixtures.VARIANTS))
def test_splitting_builds_match_pinned_digests(variant, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = [op for op in fixtures.generate("models", variant, tmp_path) if op.label in LABELS]
    assert [op.label for op in ops] == list(LABELS)
    for op in ops:
        out = Path("out") / f"{op.label}.json"
        assert main([*op.argv, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == DIGESTS[op.ctx["digest"]], op.label
