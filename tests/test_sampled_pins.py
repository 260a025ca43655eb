"""Byte pins of sampled `spectra` scans on the refuting families.

The benchmark's sampled workload runs on a family whose sampled scans all
print `unknown`, so its digests cannot see a change in the random stream.
The three families of ``bench/fixtures.py::REFUTING`` refute at small sizes,
so which systems a sampled scan draws, and where a small node budget cuts a
search, show in the verdicts and certificates it prints. Each family, as
written there, is scanned through the CLI in sampled mode up to lambda 4
with 20 trials, at two seeds, with and without a budget of 12 nodes. The
exit code and the sha256 of stdout must equal the values recorded below.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from chroma.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402

# (exit code, sha256 of stdout) per (family index, seed, budget).
RECORDED = {
    (0, 1, None): (1, "931c8a9bb9f168cedfd93fd4b7facbc785074727e88a69388ac0727b2102ee54"),
    (0, 1, 12): (1, "9a41ea2c013ba52e3898986252e435bdd1cccd5518c8d8816b0882f65d331f5d"),
    (0, 2, None): (1, "7a661052f4913930acda2c378221b020119a525239d7dd4410acfd2b513a164a"),
    (0, 2, 12): (1, "643b7993368b8d46de11b02d0c0a83e4895b320b56a187af39136c0b328da203"),
    (1, 1, None): (1, "efd508d0aa857a9f5dec0b7cab9161fd4ed973776c63c4ec466a512bae458306"),
    (1, 1, 12): (1, "efd508d0aa857a9f5dec0b7cab9161fd4ed973776c63c4ec466a512bae458306"),
    (1, 2, None): (1, "4fdf3d0a5b2daa0ef67f3ec2eda3d23c68f2e14befb326ca40ef6c4e9277b90f"),
    (1, 2, 12): (1, "4fdf3d0a5b2daa0ef67f3ec2eda3d23c68f2e14befb326ca40ef6c4e9277b90f"),
    (2, 1, None): (1, "da798d9078fc4ab5c66bc970e285c030d3d61e9c963d0af28876b5ca2d1a2610"),
    (2, 1, 12): (1, "e38e0121c2cc6f9e82fb9262238538e58449b0bcf02d8c6f438eb0da70c504a1"),
    (2, 2, None): (1, "d09bb094e37320207e6b4d9099d075535de6c4ccbce3f2163f9ce64019bb2682"),
    (2, 2, 12): (0, "24d291f602ceb806e497a4052e98544d63aca47071ca9471c39ba8c864d2dd2a"),
}


@pytest.mark.parametrize("j, seed, budget", list(RECORDED))
def test_sampled_scan_matches_pins(j, seed, budget, tmp_path, capsys):
    counts, repeat, members, _ = fixtures.REFUTING[j]
    path = tmp_path / f"ref{j}.json"
    fixtures._dump(path, fixtures.family_json(counts, members, repeat))
    argv = ["spectra", "--diagrams", str(path), "--lambda-max", "4", "--mode", "sampled",
            "--trials", "20", "--seed", str(seed)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == RECORDED[j, seed, budget]
