"""Byte pins of exhaustive `spectra` scans to size 4.

Two families grown by ``conftest.tree_with_level1_ranks`` from fixed seeds
are scanned through the CLI up to lambda 4: one whose single head has rank 4
answers yes at every size, after a real sweep of its size-4 systems, and one
with heads of ranks 5 and 4 is refuted at size 4 (DAP no, AP yes). The exit
code and the sha256 of stdout must equal the values recorded below, and the
refutation certificate is confirmed by the benchmark's independent oracle.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from chroma.cli import main
from chroma.diagrams import diagram_set_to_json
from conftest import tree_with_level1_ranks

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402

# (exit code, sha256 of stdout) per (level-1 ranks, seed).
RECORDED = {
    ((4,), 9): (0, "03e46ddf80f7acea7637d06a11cade206b33a8e069a61d3d63f804756b96a4d3"),
    ((5, 4), 1): (1, "385cb7cfc23e963ea0ea5fd075f32b87d4e5e31c488b2920e687b5850dfdf781"),
}


@pytest.mark.parametrize("ranks, seed", list(RECORDED))
def test_exhaustive_scan_to_four_matches_pins(ranks, seed, tmp_path, capsys):
    family = diagram_set_to_json(tree_with_level1_ranks(list(ranks), random.Random(seed)))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    code = main(["spectra", "--diagrams", str(path), "--lambda-max", "4"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == RECORDED[ranks, seed]
    members, count = oracle.parse_family(family)
    confirmed = 0
    for entry in json.loads(out).values():
        for key in ("dap_certificate", "ap_certificate"):
            cert = entry[key]
            if cert is not None:
                c1, c2 = (oracle.parse_structure(cert[side]) for side in ("c1", "c2"))
                universe = sorted({*c1[0], *c2[0]})
                assert not oracle.completion_exists(universe, {**c1[1], **c2[1]}, members, count)
                confirmed += 1
    assert (confirmed > 0) == (code == 1)
