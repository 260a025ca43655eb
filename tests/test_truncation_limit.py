"""``walpha-verify`` refuses a truncation above ``TRUNCATION_LIMIT`` members before building it.

The member count has a closed form: besides the root, gamma^(k+1) *
C(|U|, k) members of length k + 1 for each k up to min(|U|, max_arity - 1),
where U is the set of usable indices. Over the limit, ``truncate`` raises
ValueError naming the count summed so far and the limit, and the CLI exits
2 with one ``error:`` line. The probe at the real limit runs in a child
process whose address space is capped, so that a lost guard fails fast
instead of filling the machine.
"""

import json
import os
import resource
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import chroma
from chroma import walpha
from chroma.cli import main
from chroma.ordinal import parse_ordinal
from chroma.walpha import TRUNCATION_LIMIT, WAlphaParams, truncate


def members(usable: int, max_arity: int, max_gamma: int) -> int:
    return 1 + sum(max_gamma ** (k + 1) * comb(usable, k) for k in range(min(usable, max_arity - 1) + 1))


def refusal(count, limit=TRUNCATION_LIMIT) -> str:
    return f"a truncation of at least {count} members exceeds the limit of {limit} members"


PARAMS = WAlphaParams(parse_ordinal("9"))


def indices(usable: int) -> list:
    """``usable`` indices below the top 9, and the top itself, which is not usable."""
    return [*range(usable), 9]


@pytest.mark.parametrize(
    "usable, max_arity, max_gamma, count",
    [(8, 8, 2, 12611), (4, 5, 1, 17), (3, 4, 3, 193), (4, 2, 4, 69), (0, 5, 2, 3), (5, 1, 1, 2)],
)
def test_the_closed_form_counts_the_members(usable, max_arity, max_gamma, count):
    assert members(usable, max_arity, max_gamma) == count
    assert len(truncate(PARAMS, indices(usable), max_arity, max_gamma).members) == count


@pytest.mark.parametrize("usable, max_arity, max_gamma", [(8, 8, 2), (4, 5, 1), (3, 4, 3), (4, 2, 4)])
def test_a_truncation_is_refused_exactly_above_the_limit(usable, max_arity, max_gamma, monkeypatch):
    count = members(usable, max_arity, max_gamma)
    monkeypatch.setattr(walpha, "TRUNCATION_LIMIT", count)
    assert len(truncate(PARAMS, indices(usable), max_arity, max_gamma).members) == count
    monkeypatch.setattr(walpha, "TRUNCATION_LIMIT", count - 1)
    with pytest.raises(ValueError, match=f"^{refusal(count, count - 1)}$"):
        truncate(PARAMS, indices(usable), max_arity, max_gamma)


def test_the_sum_stops_once_it_passes_the_limit(capsys):
    # 1 + 10**30 members of length one already pass the limit; nothing larger is summed.
    argv = ["walpha-verify", "--alpha", "3", "--F", "0,1,2", "--max-arity", "4", "--max-gamma", str(10**30)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {refusal(1 + 10**30)}\n")


def test_the_bench_truncation_is_within_the_limit():
    assert members(8, 8, 2) <= TRUNCATION_LIMIT


def test_the_probe_exits_2_in_a_small_address_space(tmp_path):
    # 40 usable indices, arity 40, 3 colors: the sum passes 2^20 at k = 4.
    src = str(Path(chroma.__file__).parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    indices = ",".join(map(str, range(40)))
    run = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "walpha-verify", "--alpha", "w^2", "--F", indices,
         "--max-arity", "40", "--max-gamma", "3"],
        env=env, cwd=tmp_path, preexec_fn=limit, capture_output=True, text=True, timeout=30,
    )
    count = 1 + sum(3 ** (k + 1) * comb(40, k) for k in range(5))
    assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {refusal(count)}\n")


def arity_refusal(max_arity, limit=TRUNCATION_LIMIT) -> str:
    return f"an arity cap of {max_arity} exceeds the limit of {limit}"


@pytest.mark.parametrize("max_arity", [20, 21])
def test_an_arity_cap_is_refused_exactly_above_the_limit(max_arity, monkeypatch, capsys):
    # One usable index: 3 members, far below the limit, whatever the arity cap.
    monkeypatch.setattr(walpha, "TRUNCATION_LIMIT", 20)
    argv = ["walpha-verify", "--alpha", "1", "--F", "0", "--max-arity", str(max_arity)]
    if max_arity <= 20:
        assert len(truncate(WAlphaParams(parse_ordinal("1")), [0], max_arity).members) == 3
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["checked"] == 2
    else:
        with pytest.raises(ValueError, match=f"^{arity_refusal(max_arity, 20)}$"):
            truncate(WAlphaParams(parse_ordinal("1")), [0], max_arity)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {arity_refusal(max_arity, 20)}\n")


def test_a_huge_arity_cap_exits_2_in_a_small_address_space(tmp_path):
    # The parent built one language count per arity: a MemoryError traceback under this cap.
    src = str(Path(chroma.__file__).parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    run = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "walpha-verify", "--alpha", "1", "--F", "0", "--max-arity", "30000000"],
        env=env, cwd=tmp_path, preexec_fn=limit, capture_output=True, text=True, timeout=30,
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {arity_refusal(30000000)}\n")
