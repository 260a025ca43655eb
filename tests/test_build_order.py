"""Every model ``build`` makes colors its subsets in the canonical order.

``build`` writes every nonempty model through ``structures.structure_text``,
which pairs the colors with the canonical subset keys by position, so each
builder must fill its colors dict in the order ``canonical_subsets`` yields
the subsets. Each case runs the builder call the CLI reads from a parameter
block (``cli._read_build``): the edge cases below, among them the one-point
``m == 0`` splittings, the empty and the relabeled monochromatic model and a
sum whose components list their colors out of order, and the 16-point
blocks of the benchmark's ``models`` workload.
"""

import json
import sys
from pathlib import Path

import pytest

from chroma import cli
from chroma.structures import canonical_subsets

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402

A = [1, 0]


def total(universe, id_=0) -> dict:
    """A structure's JSON coloring every nonempty subset of ``universe`` with symbol ``id_``."""
    subsets = canonical_subsets(sorted(universe))
    return {"universe": list(universe), "colors": {json.dumps(list(s)): [len(s), id_] for s in subsets}}


def reversed_colors(structure: dict) -> dict:
    return {**structure, "colors": dict(reversed(structure["colors"].items()))}


CASES = {
    "mono": ("mono", {"diagram": [A, [2, 0], [3, 1]], "n": 3}),
    "mono-empty": ("mono", {"diagram": [], "n": 0}),
    "mono-relabeled": ("mono", {"diagram": [A, [2, 0], [3, 1]], "n": 3, "universe": [10, -2, 7]}),
    "limit-sum": ("limit-sum", {"components": [total([0, 1]), total([2], 1)]}),
    "limit-sum-out-of-order": (
        "limit-sum",
        {"components": [reversed_colors(total([5, 3, 9])), reversed_colors(total([4, 1], 1))]},
    ),
    "pair-split": ("pair-split", {"m": 2, "stem": [A], "pairs": [[A, [2, 0]], [A, [2, 1]]]}),
    "pair-split-m0": ("pair-split", {"m": 0, "stem": [A], "pairs": []}),
    "k-split": ("k-split", {"m": 3, "stem": [A, [2, 0]], "components": [total(range(3)), total(range(3), 1)]}),
    "k-split-m0": ("k-split", {"m": 0, "stem": [A, [2, 0]], "components": [total([]), total([])]}),
    "interval-split": (
        "interval-split",
        {"m": 3, "blocks": [
            {"length": 1, "pair": [A, [2, 0]], "stem": [A, [2, 0]], "components": [total([0])] * 2},
            {"length": 2, "pair": [A, [2, 1]], "stem": [A, [2, 1]], "components": [total([1, 2])] * 2},
        ]},
    ),
}


def assert_canonical(kind: str, params: dict) -> None:
    m = cli._read_build(kind, params)()
    assert list(m.colors) == list(canonical_subsets(m.universe))


@pytest.mark.parametrize("case", list(CASES))
def test_edge_cases_are_in_canonical_order(case):
    assert_canonical(*CASES[case])


def test_the_one_point_and_empty_models():
    assert cli._read_build(*CASES["pair-split-m0"])().universe == (0,)
    assert cli._read_build(*CASES["k-split-m0"])().universe == (0,)
    assert cli._read_build(*CASES["mono-empty"])().universe == ()
    assert cli._read_build(*CASES["mono-relabeled"])().universe == (-2, 7, 10)


def test_benchmark_blocks_are_in_canonical_order(tmp_path):
    ops = [op for op in fixtures.generate("models", 0, tmp_path) if op.argv[0] == "build"]
    assert sorted(op.argv[1] for op in ops) == ["interval-split", "k-split", "limit-sum", "pair-split"]
    for op in ops:
        _, kind, _, name = op.argv
        assert_canonical(kind, json.loads((tmp_path / name).read_text()))
