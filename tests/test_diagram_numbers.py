"""Searches that share one family object share its diagram-number table.

``CompletionSearch`` numbers the diagrams of a family in a table kept on
the family object, filled as searches ask for children. Here one
``DiagramSet``, one ``FullTree`` and one ``BranchFamily`` object each serve
many searches in sequence, so later searches start from a warm table.
Every search must give the same solutions, node counts, branch failures,
ending and random stream as the same search on a fresh family object, and
as the recursive ``ReferenceSearch``.
"""

import random

import pytest

from chroma.amalgamation import BudgetExhausted, CompletionSearch, InvalidSystemError
from chroma.diagrams import DiagramSet, FullTree, Language, RelSymbol
from chroma.rank import BranchFamily, InfiniteDiagram
from test_completion_search import ReferenceSearch, random_family, run

LANGUAGE = Language.of({1: 2, 2: 3, 3: 2, 4: 1, 5: 2})
BRANCH = (RelSymbol(1, 1), RelSymbol(2, 0), RelSymbol(3, 1), RelSymbol(4, 0), RelSymbol(5, 1))


def family_makers():
    """Ways to build equal but distinct family objects, with their languages."""
    ds = random_family(random.Random(7))
    return {
        "diagram-set": (ds.language, lambda: DiagramSet(ds.language, ds.members)),
        "full-tree": (LANGUAGE, lambda: FullTree(LANGUAGE)),
        "branch": (LANGUAGE, lambda: BranchFamily(InfiniteDiagram.from_symbols(BRANCH))),
    }


def random_preset(rng, universe, language, family):
    """Empty, or one class coloring of a random part of the universe."""
    part = tuple(p for p in universe if rng.random() < 0.6)
    if not part or rng.random() < 0.3:
        return {}
    shuffle = random.Random(rng.random())
    search = ReferenceSearch(part, {}, language, family, budget=200, rng=shuffle)
    try:
        return next(search.solutions(), {})
    except BudgetExhausted:
        return {}


def outcome(cls, universe, preset, language, family, budget, rng_seed, cap):
    rng = None if rng_seed is None else random.Random(rng_seed)
    search = cls(universe, preset, language, family, budget, rng)
    return run(search, cap), search.missing, rng and rng.getstate()


@pytest.mark.parametrize("kind", ["diagram-set", "full-tree", "branch"])
def test_warm_table_matches_fresh_family_and_reference(kind):
    language, make = family_makers()[kind]
    shared = make()
    rng = random.Random(kind)
    tables = set()
    for _ in range(120):
        universe = tuple(sorted(rng.sample(range(8), rng.randint(0, 4))))
        preset = random_preset(rng, universe, language, make())
        budget = rng.choice([None, 1, 5, 40, 300])
        rng_seed = rng.choice([None, 0, 1, 2, rng.randrange(10**6)])
        cap = rng.choice([1, 2, 50])
        args = (universe, preset, language)
        ours = outcome(CompletionSearch, *args, shared, budget, rng_seed, cap)
        assert ours == outcome(CompletionSearch, *args, make(), budget, rng_seed, cap)
        assert ours == outcome(ReferenceSearch, *args, make(), budget, rng_seed, cap)
        tables.add(id(vars(shared)["_diagram_numbers"]))
    assert len(tables) == 1


def test_each_family_object_keeps_its_own_table():
    language, make = family_makers()["diagram-set"]
    first, second = make(), make()
    assert first == second
    for family in (first, second):
        list(CompletionSearch((0, 1), {}, language, family).solutions())
    assert vars(first)["_diagram_numbers"] is not vars(second)["_diagram_numbers"]
    assert vars(first)["_diagram_numbers"] == vars(second)["_diagram_numbers"]


def test_forbidden_preset_is_refused_from_a_warm_table():
    language = Language.of({1: 2, 2: 2})
    a, b = RelSymbol(1, 0), RelSymbol(2, 1)
    family = DiagramSet.of(language, [(), (a,), (a, RelSymbol(2, 0))])
    preset = {(0,): a, (1,): a, (0, 1): b}
    for _ in range(2):
        # The first search learns that (a, b) is forbidden; the second reads it back.
        list(CompletionSearch((0, 1, 2), {(0,): a, (1,): a}, language, family).solutions())
        with pytest.raises(InvalidSystemError, match=r"preset subset \(0, 1\) is monochromatic"):
            CompletionSearch((0, 1), preset, language, family)


def test_branch_failures_read_their_diagrams_back():
    """A failure found through a warm table carries the same diagram tuple as a cold one."""
    language, make = family_makers()["branch"]
    shared = make()
    for size in range(1, 5):
        universe = tuple(range(size))
        cold = CompletionSearch(universe, {}, language, make())
        warm = CompletionSearch(universe, {}, language, shared)
        assert list(cold.solutions()) == list(warm.solutions())
        assert cold.branch_failures == warm.branch_failures
        for subset, diagram in warm.branch_failures.values():
            assert len(diagram) == len(subset)
            assert not shared.allows(diagram)


class SlottedChain:
    """A family that takes no attributes: the chain of id-0 symbols."""

    __slots__ = ()

    def allows(self, w) -> bool:
        return all(sym.id == 0 for sym in w)


def test_family_without_attributes_gets_a_table_per_search():
    family = SlottedChain()
    for seed in range(3):
        ours = outcome(CompletionSearch, (0, 1, 2), {}, LANGUAGE, family, None, seed, 50)
        theirs = outcome(ReferenceSearch, (0, 1, 2), {}, LANGUAGE, family, None, seed, 50)
        assert ours == theirs
