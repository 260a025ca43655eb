"""The completion search's own shuffle draws against ``random.Random.shuffle``.

Sampled searches shuffle the candidate symbols of each subset with the
Fisher-Yates loop and the ``getrandbits`` draws of ``random.Random.shuffle``,
run inline. Under the full tree every coloring is a completion, so the
order of the solutions is the order of the shuffled candidates. For lists
of 1 to 9 symbols (4 or more take 3- and 4-bit draws, which no benchmark
family reaches) and many seeds, the order and the generator's state after
the search must equal those of ``shuffle`` itself.

The checks import neither pytest nor the test helpers, so they also run
under a bare interpreter: ``PYTHONPATH=src python tests/test_shuffle_draws.py``.
"""

import random

from chroma.amalgamation import CompletionSearch
from chroma.diagrams import FullTree, Language

LENGTHS = range(1, 10)
SEEDS = range(150)


def expected_order(lengths, rng):
    """Id tuples of all colorings of levels of ``lengths`` symbols, shuffled on entering a level."""

    def walk(depth, prefix):
        if depth == len(lengths):
            yield prefix
            return
        ids = list(range(lengths[depth]))
        rng.shuffle(ids)
        for i in ids:
            yield from walk(depth + 1, prefix + (i,))

    return list(walk(0, ()))


def search_order(universe, counts, seed, cap=None):
    """Id tuples of the full tree's completions of ``universe``, and the generator state after."""
    language = Language.of(counts)
    rng = random.Random(seed)
    search = CompletionSearch(universe, {}, language, FullTree(language), rng=rng)
    order = []
    for solution in search.solutions():
        order.append(tuple(solution[s].id for s in search.missing))
        if len(order) == cap:
            break
    return order, rng.getstate()


def check_one_subset():
    """A one-point universe: one shuffle of every length, for every seed."""
    for n in LENGTHS:
        for seed in SEEDS:
            order, state = search_order((0,), {1: n}, seed)
            rng = random.Random(seed)
            ids = list(range(n))
            rng.shuffle(ids)
            assert order == [(i,) for i in ids], (n, seed)
            assert state == rng.getstate(), (n, seed)


def check_nested_levels():
    """A two-point universe: one shuffle per entered subset, mixed lengths, whole and first only."""
    for a, b in ((4, 2), (3, 5), (2, 9), (7, 1), (1, 6)):
        for seed in range(0, 150, 5):
            rng = random.Random(seed)
            expected = expected_order((a, a, b), rng)
            got = search_order((3, 8), {1: a, 2: b}, seed)
            assert got == (expected, rng.getstate()), (a, b, seed)
            rng = random.Random(seed)
            ids = [list(range(n)) for n in (a, a, b)]
            for level in ids:
                rng.shuffle(level)
            path = (ids[0][0], ids[1][0], ids[2][0])
            assert search_order((3, 8), {1: a, 2: b}, seed, cap=1) == ([path], rng.getstate())


def test_one_subset_matches_shuffle():
    check_one_subset()


def test_nested_levels_match_shuffle():
    check_nested_levels()


if __name__ == "__main__":
    check_one_subset()
    check_nested_levels()
    print("shuffle draws match")
