"""Byte identity of `amalgamate` and `spectra` outputs, and of the sampled system stream.

The benchmark's fixtures are generated with `bench/fixtures.py` (imported
read-only) and each call runs through the CLI: every `amalgamate` call of
`models` variants 0 and 1 (all five modes), and every call of
`spectra-exhaustive` and `spectra-sampled` at seed 0. The exit code and the
sha256 of stdout must equal the values recorded below.

Every sampled `spectra` call prints `unknown`, so those outputs cannot see a
change in the random stream; the seeded draws of `sample_special_system`
are pinned separately.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from chroma.amalgamation import BudgetExhausted, sample_special_system
from chroma.cli import indented_json, main, system_to_json
from chroma.diagrams import DiagramSet, Language, diagram_set_from_json
from conftest import A, C, t1_set

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402

_SPECTRA_YES = "b87d57978b4a09300664c1f60d1d8cab0e7eb170925aba15b76f3c060f480cae"
_SAMPLED_UNKNOWN = "431f8e13bd04404df88e37cb9c98271ec674297122112c6202888db8bb148f1f"

# (exit code, sha256 of stdout) per call label.
RECORDED = {
    ("models", 0): {
        "dap0": (0, "8e52b15954027b368d0f335ea7190971fa5125428c0ca827b87aff509f0bc794"),
        "ap0": (0, "a719aaa344537d802077598f0b7fa064dcde5a918fb831ede2db299b0133a21b"),
        "from_ap0": (0, "2697cccd32a7e13e272fc920e5809c169ed56a67ccf7139c21baa61eed1776b1"),
        "infinite0": (0, "5ae6a458cf344f0624a1a1c3255c1acecd21248c1ad202859ae943109387f06a"),
        "quotient0": (0, "c74490b30dd55a1ae4bb6f19de3143f7384d9cb7a3b9c51ad89eefc43e31897e"),
        "dap1": (0, "d3e03bf2614167176057dd3971426423080087537792202e1e56ea18905d5c9c"),
        "ap1": (0, "600e34a65085c2f0c9d155070c0f8c02ec3cb067ddf4a86ed4553364c0257321"),
        "from_ap1": (0, "1f7ba10e206dbde69d6cc277dc526de1d1375c04e117a30f1067e04f929a8cdc"),
        "infinite1": (0, "07002244b208b8c7cb2efe060b1e52b142a6ea6cce484218771e41d381df37c2"),
        "quotient1": (0, "dc608de48fc817c22f78a7c888274c4d37ed5b1aa3d6d80fa0f567772f352206"),
        "dap2": (0, "12a2abc21a9a7608dce7af62cbc279212ef993e44ea9bb220390e27c17e0c8db"),
        "ap2": (0, "cc8f3b14f6e9557d897ea4920a5aab14360179eeae2753f90208bfeeba1968cc"),
        "from_ap2": (0, "2a587acd97279ac48a06f2cdc439a8ffff5b966e1a5a5a1bdc6683eb2675c695"),
        "infinite2": (0, "b42dee641bb1d5ded6a3663ecdde63f153ff944d541f906d0d5b3a3cb4f06f3a"),
        "quotient2": (0, "c20a1331010f508a94ec96b850ca8da89f88bf582cb90edcc8c8df1f42318cbd"),
    },
    ("models", 1): {
        "dap0": (0, "58ba9d9c18826f8bd1abdcf92c4a0b3d5508a1ba4c4c4612fd9dc697186086fe"),
        "ap0": (0, "6ed64e050eb22b73fdd884a501d63ef55c817f3379cf10fc000c50c274aac87b"),
        "from_ap0": (0, "fd3f73593a21922f3fdc18ba0aea0e5c3fd8d7ae437061216044cfe684bd23c0"),
        "infinite0": (0, "4a890c8ed853fadf83cdee25c2004eb9e33e927f57b0c9204eb969a485dabe1c"),
        "quotient0": (0, "bf780e7da8e543d2efff83fd816f7532161a56625d1a5e4b1d849b0eaa8c9642"),
        "dap1": (0, "265207ab5216d004367f63a71ed6b8af103596cdede583281bef55862f7992f4"),
        "ap1": (0, "ece38409ab86243d245bdd22e1b91667fccbb53f9f29fe6aeb7e7f664c6f8954"),
        "from_ap1": (0, "ec2ab19b162fa86ef393b93bb70b5654cea3d6f9e5ff8607d24bad30acfc7a73"),
        "infinite1": (0, "138b503dabce8ac2c6e8a20bbb9df4a200d45cc9a98ff67a8d9f07f30ff1f174"),
        "quotient1": (0, "e00bc661b34db0cac14f03635ac33472b1edf7400b6a8749761ba22c16ec64f3"),
        "dap2": (0, "b618a8f89f36c1ffc38e20b60cd3cef4421c452b7efb953e6ba9f597293bf51e"),
        "ap2": (0, "af82f420e4781a948a791164c347527ea980482c3469693e0d2a7af62c51bab1"),
        "from_ap2": (0, "75980bd0df17520b65b07261e49027e82f854e9721fe2e63187c9fb66dcd7c82"),
        "infinite2": (0, "4e72e903474769c9574e5740fa9ffca830a7872c8b9524d6508bc40eda1a8cdc"),
        "quotient2": (0, "0c6541ab85c2e6c5a0b93ebd030e62efa140648eddfb59e71de544405fc0bfb7"),
    },
    ("spectra-exhaustive", 0): {
        "pos0": (0, _SPECTRA_YES),
        "pos1": (0, _SPECTRA_YES),
        "pos2": (0, _SPECTRA_YES),
        "pos3": (0, _SPECTRA_YES),
        "trunc": (0, _SPECTRA_YES),
        "ref0": (1, "d5a79488377768f55c626156b482668c8ba246fa17b92e0626f28d0838a461a0"),
        "ref1": (1, "ddbbfcc24d7fc5191752c006be16e0d8d5b19f10cf37f4782531a4bf8133316f"),
        "ref2": (1, "3d4276a7014d569c0251855184f06cdb9951308c8d34438bca0f27fc63a3ed04"),
    },
    ("spectra-sampled", 0): {f"sampled{i}": (0, _SAMPLED_UNKNOWN) for i in range(8)},
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload, seed", list(RECORDED))
def test_calls_match_recorded_digests(workload, seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ops = fixtures.generate(workload, seed, tmp_path)
    if workload == "models":
        ops = [op for op in ops if op.argv[0] == "amalgamate"]
    assert [op.label for op in ops] == list(RECORDED[workload, seed])
    for op in ops:
        code = main(list(op.argv))
        assert (code, _sha256(capsys.readouterr().out)) == RECORDED[workload, seed][op.label], op.label


SAMPLED_STREAM = "78a05b1629f5be07b5257b0c548ea5407e51ec09b36574c7c69900b1aecdafc9"


def test_sampled_systems_match_recorded_stream(tmp_path):
    """Seeded draws, budget hits and dead ends included, then the rng's next value.

    The last family has a base of every size up to 2 but no one-point
    extension of a 2-point base, and its triples draw a shuffle, so the
    second extension must be drawn even when the first one is missing.
    """
    fixtures.generate("spectra-sampled", 0, tmp_path)
    trunc = diagram_set_from_json(json.loads((tmp_path / "trunc.json").read_text()))
    dead = DiagramSet.of(Language.of({1: 1, 2: 1, 3: 2}), [(), (A,), (A, C)])
    draws = []
    for family, budget in ((trunc, fixtures.SAMPLED_BUDGET), (t1_set(), 20), (dead, None)):
        rng = random.Random(7)
        for lam in range(5):
            for _ in range(4):
                try:
                    sys_ = sample_special_system(lam, family, rng, budget)
                except BudgetExhausted:
                    draws.append("budget")
                    continue
                draws.append(None if sys_ is None else system_to_json(sys_))
        draws.append(rng.random())
    assert _sha256(indented_json(draws)) == SAMPLED_STREAM
