"""Byte pins and brute-force confirmation of the refuting families' scans to size 3.

The three families of ``bench/fixtures.py::REFUTING`` are scanned through
the CLI up to lambda 3: as written there, and relabeled as the
`spectra-exhaustive` workload writes them at seeds 1 and 2 (seed 0 is
pinned by ``test_search_digests.py``). The exit code and the sha256 of
stdout must equal the values recorded below, the verdicts must be the
recorded ones, and every certificate the scan prints is confirmed by trying
every coloring of its missing sets.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from chroma.cli import main, system_from_json
from chroma.diagrams import diagram_set_from_json
from conftest import brute_system_unsat

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402

# (exit code, sha256 of stdout) per (source, family index).
RECORDED = {
    ("raw", 0): (1, "8da054b398b932daa8896c936b46d9db8f23a6c9046e0f11b1b4dea9df3dce30"),
    ("raw", 1): (1, "feefa788e7eacb9513c3ac67f9f4e30ad3a4b11394a8e47922ce4625e79298a4"),
    ("raw", 2): (1, "3d4276a7014d569c0251855184f06cdb9951308c8d34438bca0f27fc63a3ed04"),
    ("seed1", 0): (1, "8da054b398b932daa8896c936b46d9db8f23a6c9046e0f11b1b4dea9df3dce30"),
    ("seed1", 1): (1, "e2b927b7245f922112f1e59058bd7c4138f649592bb92c170212e1d8780182e3"),
    ("seed1", 2): (1, "3d4276a7014d569c0251855184f06cdb9951308c8d34438bca0f27fc63a3ed04"),
    ("seed2", 0): (1, "ab471669306e5af9f1cfcf8fd870c63242658f5a40b4ae4e61ec415286f274cf"),
    ("seed2", 1): (1, "e2b927b7245f922112f1e59058bd7c4138f649592bb92c170212e1d8780182e3"),
    ("seed2", 2): (1, "3d4276a7014d569c0251855184f06cdb9951308c8d34438bca0f27fc63a3ed04"),
}


def _family_files(source: str, tmp_path: Path) -> list[Path]:
    if source == "raw":
        paths = []
        for j, (counts, repeat, members, _) in enumerate(fixtures.REFUTING):
            path = tmp_path / f"raw{j}.json"
            fixtures._dump(path, fixtures.family_json(counts, members, repeat))
            paths.append(path)
        return paths
    seed = int(source.removeprefix("seed"))
    ops = fixtures.generate("spectra-exhaustive", seed, tmp_path)
    return [tmp_path / op.ctx["family"] for op in ops if op.kind == "spectra-refuting"]


@pytest.mark.parametrize("source, j", list(RECORDED))
def test_refuting_scan_matches_pins_and_brute_force(source, j, tmp_path, capsys):
    path = _family_files(source, tmp_path)[j]
    code = main(["spectra", "--diagrams", str(path), "--lambda-max", "3"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == RECORDED[source, j]
    table = json.loads(out)
    assert [(table[str(lam)]["dap"], table[str(lam)]["ap"]) for lam in range(4)] == [
        tuple(v) for v in fixtures.REFUTING[j][3]
    ]
    family = diagram_set_from_json(json.loads(path.read_text()))
    certificates = 0
    for lam in range(4):
        for key in ("dap_certificate", "ap_certificate"):
            cert = table[str(lam)][key]
            if cert is not None:
                assert brute_system_unsat(system_from_json(cert), family), (lam, key)
                certificates += 1
    assert certificates > 0
