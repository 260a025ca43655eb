"""Differential gate for membership over monochromatic sets only.

``in_class`` visits only the monochromatic subsets, each size grown from the
monochromatic sets of the size below. The reference here is the full-table
reading it replaced: every nonempty subset in the canonical order gets its
diagram or None from its one-smaller subsets, and the first monochromatic
subset whose diagram the family refuses is reported. Both must ask the
family about the same diagrams in the same order and give equal reports.
"""

import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from chroma.cli import _read_build
from chroma.diagrams import DiagramSet, Language, RelSymbol, diagram_set_from_json
from chroma.structures import (
    ColoringStructure,
    MembershipReport,
    _monochromatic,
    in_class,
    monochromatic_model,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402


def reference_table(m: ColoringStructure) -> dict:
    """Every nonempty subset's diagram, None where it is not monochromatic."""
    table = {(): ()}
    for size in range(1, len(m.universe) + 1):
        for subset in combinations(m.universe, size):
            diagrams = {table[b] for b in combinations(subset, size - 1)}
            common = diagrams.pop() if len(diagrams) == 1 else None
            table[subset] = None if common is None else common + (m.colors[subset],)
    del table[()]
    return table


def reference_in_class(table: dict, family) -> MembershipReport:
    for subset, diagram in table.items():
        if diagram is not None and not family.allows(diagram):
            return MembershipReport(False, subset, diagram)
    return MembershipReport(True)


class Recording:
    """A family that refuses a fixed set of diagrams and records every question."""

    def __init__(self, forbidden=()):
        self.forbidden = set(forbidden)
        self.asked = []

    def allows(self, w) -> bool:
        self.asked.append(w)
        return w not in self.forbidden


def assert_same_membership(m: ColoringStructure, table: dict, forbidden) -> MembershipReport:
    ours, theirs = Recording(forbidden), Recording(forbidden)
    report = in_class(m, ours)
    assert report == reference_in_class(table, theirs)
    assert ours.asked == theirs.asked
    return report


def random_structure(rng: random.Random, n: int) -> ColoringStructure:
    """Few symbols per arity, mostly id 0, so that many sets are monochromatic."""
    universe = tuple(sorted(rng.sample(range(-5, 40), n)))
    colors = {}
    for size in range(1, n + 1):
        bias = rng.random()
        for s in combinations(universe, size):
            colors[s] = RelSymbol(size, 0 if rng.random() < bias else rng.randrange(1, 3))
    return ColoringStructure(universe, colors)


def forbidden_choices(rng: random.Random, table: dict) -> list:
    """No diagram, one realized diagram per size, and random handfuls of realized ones."""
    realized = sorted({d for d in table.values() if d is not None})
    by_size = {}
    for d in realized:
        by_size.setdefault(len(d), []).append(d)
    out = [[]]
    out += [[rng.choice(ds)] for ds in by_size.values()]
    for _ in range(3):
        out.append(rng.sample(realized, rng.randint(1, min(4, len(realized)))))
    return out


@pytest.mark.parametrize("seed", range(60))
def test_random_structures(seed):
    rng = random.Random(seed)
    m = random_structure(rng, 1 + seed % 9)
    table = reference_table(m)
    walk = _monochromatic(m.universe, m.colors.__getitem__)
    assert list(walk) == [(s, d) for s, d in table.items() if d is not None]
    for forbidden in forbidden_choices(rng, table):
        assert_same_membership(m, table, forbidden)


@pytest.mark.parametrize("seed", range(20))
def test_random_structures_against_their_own_diagram_sets(seed):
    """Families read as diagram sets: the realized diagrams, prefix-closed, less one subtree."""
    rng = random.Random(1000 + seed)
    m = random_structure(rng, 1 + seed % 9)
    table = reference_table(m)
    realized = {d for d in table.values() if d is not None}
    members = {d[:k] for d in realized for k in range(len(d) + 1)}
    cut = rng.choice(sorted(realized))
    kept = {d for d in members if d[: len(cut)] != cut}
    language = Language.of({n: 3 for n in range(1, len(m.universe) + 1)})
    for family in (DiagramSet.of(language, members), DiagramSet.of(language, kept)):
        assert in_class(m, family) == reference_in_class(table, family)


@pytest.mark.parametrize("n", range(1, 11))
def test_monochromatic_models(n):
    """Every subset is monochromatic; a refused prefix of length k fails at the first k points."""
    rng = random.Random(n)
    d = tuple(RelSymbol(k, rng.randrange(2)) for k in range(1, n + 1))
    universe = sorted(rng.sample(range(100), n))
    m = monochromatic_model(d, n, universe)
    table = reference_table(m)
    assert all(diagram is not None for diagram in table.values())
    assert assert_same_membership(m, table, ())
    for k in range(1, n + 1):
        report = assert_same_membership(m, table, [d[:k]])
        assert report == MembershipReport(False, tuple(m.universe[:k]), d[:k])


@pytest.fixture(scope="module")
def bench_builds(tmp_path_factory):
    """The four 16-point `models` builds of two fixture variants, with their families."""
    out = []
    for variant in (0, 1):
        d = tmp_path_factory.mktemp(f"models{variant}")
        fixtures.generate("models", variant, d)
        for name in ("pair_split", "k_split", "interval_split", "limit_sum"):
            params = json.loads((d / f"{name}.json").read_text())
            m = _read_build(name.replace("_", "-"), params)()
            family = diagram_set_from_json(json.loads((d / f"{name}_family.json").read_text()))
            out.append((f"v{variant}-{name}", m, family))
    return out


def test_bench_builds(bench_builds):
    rng = random.Random(7)
    for label, m, family in bench_builds:
        assert len(m.universe) == 16, label
        table = reference_table(m)
        assert in_class(m, family) == reference_in_class(table, family), label
        walk = _monochromatic(m.universe, m.colors.__getitem__)
        assert list(walk) == [(s, d) for s, d in table.items() if d is not None], label
        for forbidden in forbidden_choices(rng, table):
            assert_same_membership(m, table, forbidden)
