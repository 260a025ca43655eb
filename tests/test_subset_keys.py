"""The one subset-key grower that both the structure writer and reader use.

``_subset_keys`` grows a subset's key from its prefix's key when the prefix
came earlier, and falls back to ``subset_key`` otherwise; whatever the
order, every key must be the subset's compact JSON text.
"""

import json
import random

import pytest

from chroma.diagrams import RelSymbol
from chroma.structures import (
    ColoringStructure,
    _subset_keys,
    canonical_subsets,
    structure_from_json,
    structure_to_json,
    subset_key,
)

# Multi-digit, non-contiguous points, so a key grown from the wrong prefix
# or with a dropped separator cannot pass for the right one.
UNIVERSES = [
    (3, 10, 11, 102),
    (-7, 0, 5, 23, 230, 2300),
    (1, 12, 123, 1234, 12345, 99, 100, 7),
]


def all_subsets(universe):
    return list(canonical_subsets(tuple(sorted(universe))))


@pytest.mark.parametrize("universe", UNIVERSES)
def test_canonical_order_keys_are_subset_keys(universe):
    subsets = all_subsets(universe)
    keys = _subset_keys(subsets)
    assert list(keys) == subsets
    assert all(keys[s] == subset_key(s) for s in subsets)


@pytest.mark.parametrize("universe", UNIVERSES)
def test_shuffled_orders_put_prefixes_later(universe):
    rng = random.Random(len(universe))
    subsets = all_subsets(universe)
    for _ in range(20):
        rng.shuffle(subsets)
        keys = _subset_keys(subsets)
        assert list(keys) == subsets
        assert all(keys[s] == subset_key(s) for s in subsets)


@pytest.mark.parametrize("universe", UNIVERSES)
def test_subsets_whose_prefix_never_comes(universe):
    rng = random.Random(31 + len(universe))
    subsets = all_subsets(universe)
    for _ in range(20):
        chosen = rng.sample(subsets, rng.randint(1, len(subsets)))
        if rng.random() < 0.5:
            chosen.sort(key=lambda s: (len(s), s))
        keys = _subset_keys(chosen)
        assert all(keys[s] == subset_key(s) for s in chosen)


@pytest.mark.parametrize("n", range(1, 9))
def test_reader_resolves_every_canonical_key_without_parsing(n, monkeypatch):
    """With one color per nonempty subset, each canonical key is looked up, never parsed.

    Every key ``subset_key`` writes must come back as its own subset, so the
    reader's table is ``{subset_key(s): s}`` on the keys a file can hold.
    """
    rng = random.Random(41 + n)
    universe = tuple(sorted(rng.sample(range(-20, 400), n)))
    colors = {s: RelSymbol(len(s), rng.randrange(2)) for s in canonical_subsets(universe)}
    raw = {subset_key(s): [sym.arity, sym.id] for s, sym in colors.items()}
    items = list(raw.items())
    rng.shuffle(items)

    def no_parsing(text):
        raise AssertionError(f"canonical key {text!r} was parsed")

    monkeypatch.setattr(json, "loads", no_parsing)
    m = structure_from_json({"universe": list(universe), "colors": dict(items)})
    monkeypatch.undo()
    assert m == ColoringStructure(universe, colors)
    assert structure_to_json(m)["colors"] == raw


def test_writer_keys_follow_the_structure_order():
    universe = (3, 10, 11, 102)
    subsets = all_subsets(universe)
    random.Random(43).shuffle(subsets)
    m = ColoringStructure(universe, {s: RelSymbol(len(s), 0) for s in subsets})
    assert list(structure_to_json(m)["colors"]) == [subset_key(s) for s in subsets]

