"""Subset keys as the structure reader resolves them and the writer orders them.

The reader resolves each key ``subset_key`` writes to its own subset, and
the writer gives every key as ``subset_key`` writes it, in the structure's
own order, whether or not that order is canonical.
"""

import random

import pytest

from chroma.diagrams import RelSymbol
from chroma.structures import (
    ColoringStructure,
    canonical_subsets,
    structure_from_json,
    structure_to_json,
    subset_key,
)


def all_subsets(universe):
    return list(canonical_subsets(tuple(sorted(universe))))


@pytest.mark.parametrize("n", range(1, 9))
def test_reader_resolves_every_canonical_key(n):
    """With one color per nonempty subset, every key ``subset_key`` writes comes back as its own subset."""
    rng = random.Random(41 + n)
    universe = tuple(sorted(rng.sample(range(-20, 400), n)))
    colors = {s: RelSymbol(len(s), rng.randrange(2)) for s in canonical_subsets(universe)}
    raw = {subset_key(s): [sym.arity, sym.id] for s, sym in colors.items()}
    items = list(raw.items())
    rng.shuffle(items)

    m = structure_from_json({"universe": list(universe), "colors": dict(items)})
    assert m == ColoringStructure(universe, colors)
    assert structure_to_json(m)["colors"] == raw


def test_writer_keys_follow_the_structure_order():
    universe = (3, 10, 11, 102)
    subsets = all_subsets(universe)
    random.Random(43).shuffle(subsets)
    m = ColoringStructure(universe, {s: RelSymbol(len(s), 0) for s in subsets})
    assert list(structure_to_json(m)["colors"]) == [subset_key(s) for s in subsets]

