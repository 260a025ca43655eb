"""Shared ``[arity, id]`` lists, canonical keys and validation on reading.

``structure_to_json`` and ``diagram_set_to_json`` write one list per
distinct symbol, and ``indented_json`` encodes each list of scalars once per
list object and nesting level; the text must still be exactly what
``json.dumps(value, indent=2, sort_keys=True)`` writes. Canonical keys are
made one at a time, so a partial structure never enumerates its universe,
and every file ``structure_from_json`` reads gets one ``validate_structure``
walk.
"""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chroma.structures as structures
from chroma.cli import indented_json
from chroma.diagrams import RelSymbol, diagram_set_to_json
from chroma.structures import (
    ColoringStructure,
    _canonical_keys,
    canonical_subsets,
    structure_from_json,
    structure_to_json,
    subset_key,
    validate_structure,
)

from conftest import random_prefix_tree


def reference_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)


@st.composite
def shared_payloads(draw):
    """A few scalar lists, each placed at several nesting levels, some more than once."""
    leaves = draw(st.lists(st.lists(SCALARS, min_size=1, max_size=3), min_size=1, max_size=3))

    def place(depth):
        leaf = draw(st.sampled_from(leaves))
        if depth == 0 or draw(st.booleans()):
            return leaf
        if draw(st.booleans()):
            return [place(depth - 1) for _ in range(draw(st.integers(1, 3)))]
        return {f"k{i}": place(depth - 1) for i in range(draw(st.integers(1, 3)))}

    return {"top": place(0), "a": place(3), "b": [place(2), leaves[0], {"again": leaves[0]}]}


class TestIndentedJsonSharedLists:
    def test_one_list_at_two_levels(self):
        pair = [2, 0]
        value = {"a": pair, "b": [pair, {"c": pair, "d": [pair, pair]}], "e": pair}
        assert indented_json(value) == reference_dumps(value)

    def test_shared_list_of_floats_and_tuples(self):
        zeros = [0.0, -0.0, float("nan")]
        point = (1, True, None)
        value = [zeros, [zeros, point], {"z": zeros, "p": [point, point]}]
        assert indented_json(value) == reference_dumps(value)

    @given(shared_payloads())
    @settings(max_examples=200, deadline=None)
    def test_shared_payloads(self, value):
        assert indented_json(value) == reference_dumps(value)

    def test_shared_container_holding_a_shared_list(self):
        pair = [1, 0]
        inner = {"x": pair, "y": [pair]}
        value = {"p": inner, "q": [inner, pair], "r": {"s": inner}}
        assert indented_json(value) == reference_dumps(value)


def random_structure(rng: random.Random, universe) -> ColoringStructure:
    colors = {s: RelSymbol(len(s), rng.randrange(3)) for s in canonical_subsets(universe)}
    return ColoringStructure(tuple(universe), colors)


class TestSharedPairs:
    @pytest.mark.parametrize("seed", range(12))
    def test_structure_payloads(self, seed):
        rng = random.Random(seed)
        universe = sorted(rng.sample(range(-30, 300), 1 + seed % 7))
        m = random_structure(rng, universe)
        payload = structure_to_json(m)
        pairs = list(payload["colors"].values())
        assert len({id(p) for p in pairs}) == len(set(m.colors.values()))
        assert payload["colors"] == {subset_key(s): [c.arity, c.id] for s, c in m.colors.items()}
        assert indented_json(payload) == reference_dumps(payload)
        assert structure_from_json(json.loads(indented_json(payload))) == m

    @pytest.mark.parametrize("seed", range(12))
    def test_diagram_set_payloads(self, seed):
        ds = random_prefix_tree(random.Random(seed), max_nodes=80, max_arity=5)
        payload = diagram_set_to_json(ds)
        pairs = [p for member in payload["members"] for p in member]
        symbols = {sym for member in ds.members for sym in member}
        assert len({id(p) for p in pairs}) == len(symbols)
        assert payload["members"] == [[[s.arity, s.id] for s in w] for w in ds.sorted_members]
        assert indented_json(payload) == reference_dumps(payload)


def no_large_universes(monkeypatch):
    """Fail once more than a thousand subsets of a universe are taken."""
    real = structures.canonical_subsets

    def guarded(points, start=1):
        for i, subset in enumerate(real(points, start)):
            if i == 1000:
                raise AssertionError(f"enumerated a {len(points)}-point universe")
            yield subset

    monkeypatch.setattr(structures, "canonical_subsets", guarded)


class TestCanonicalKeyTable:
    @pytest.mark.parametrize("universe", [(), (5,), (0, 1, 2), (-7, 3, 10, 11, 102), tuple(range(9))])
    def test_keys_are_subset_keys_in_canonical_order(self, universe):
        subsets = list(canonical_subsets(universe))
        assert list(_canonical_keys(universe)) == [subset_key(s) for s in subsets]

    def test_partial_structure_is_written_without_enumerating_its_universe(self, monkeypatch):
        universe = tuple(range(0, 80, 2))
        colors = {(p,): RelSymbol(1, p % 2) for p in universe}
        colors.update({s: RelSymbol(2, 0) for s in combinations(universe[:5], 2)})
        m = ColoringStructure(universe, colors)
        no_large_universes(monkeypatch)
        payload = structure_to_json(m)
        assert list(payload["colors"]) == [subset_key(s) for s in colors]
        assert payload["colors"] == {subset_key(s): [c.arity, c.id] for s, c in colors.items()}

    def test_partial_structure_is_read_without_enumerating_its_universe(self, monkeypatch):
        data = {"universe": list(range(40)), "colors": {"[0]": [1, 0], "[1]": [1, 0]}}
        no_large_universes(monkeypatch)
        with pytest.raises(ValueError, match=r"subset \(2,\) is uncolored"):
            structure_from_json(data)


class TestValidationWhileReading:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_canonical_file_is_validated_once(self, n, monkeypatch):
        """A total file with canonical keys gets the same one walk as any other."""
        m = random_structure(random.Random(n), range(n))
        data = json.loads(json.dumps(structure_to_json(m), sort_keys=True))
        walks = []

        def counted(read):
            walks.append(read)
            validate_structure(read)

        monkeypatch.setattr(structures, "validate_structure", counted)
        assert structure_from_json(data) == m
        assert walks == [m]

    @pytest.mark.parametrize(
        "change",
        [
            {"[0,1]": [3, 0]},
            {"[2]": [2, 0]},
            {"[0,1,2]": [2, 1], "[1]": [2, 0]},
            {"[1, 0]": [2, 0]},
        ],
        ids=["arity-high", "singleton-arity", "two-wrong", "spelled-key"],
    )
    def test_any_other_file_gets_the_walk_and_its_message(self, change, monkeypatch):
        """A wrong arity or a key spelled otherwise is left to ``validate_structure``."""
        m = random_structure(random.Random(3), range(3))
        data = structure_to_json(m)
        colors = dict(data["colors"])
        if "[1, 0]" in change:
            del colors["[0,1]"]
        colors.update(change)
        data = {"universe": data["universe"], "colors": colors}
        parsed = {tuple(sorted(json.loads(k))): RelSymbol(*v) for k, v in colors.items()}
        reference = ColoringStructure(tuple(data["universe"]), parsed)
        expected = None
        try:
            validate_structure(reference)
        except ValueError as e:
            expected = str(e)
        walks = []

        def counted(m):
            walks.append(m)
            validate_structure(m)

        monkeypatch.setattr(structures, "validate_structure", counted)
        if expected is None:
            assert structure_from_json(data) == reference
        else:
            with pytest.raises(ValueError) as caught:
                structure_from_json(data)
            assert str(caught.value) == expected
        assert len(walks) == 1


class FreshValues(dict):
    """A mapping whose every lookup builds a new list, freed once it is encoded."""

    def __getitem__(self, key):
        return [len(key), key]


def test_lists_built_during_encoding_are_not_confused():
    value = FreshValues.fromkeys(f"k{i}" for i in range(50))
    expected = reference_dumps({k: [len(k), k] for k in value})
    assert indented_json(value) == expected
