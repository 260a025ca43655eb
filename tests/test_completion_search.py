"""Differential gate for the iterative completion search.

``CompletionSearch`` walks an explicit stack over a cached subset lattice,
decides monochromaticity through a table of numbered diagrams kept on the
family, and makes the draws of ``random.Random.shuffle`` itself. The
reference below is the plain recursive search, one generator frame per missing
subset, deciding monochromaticity from the definition. Both must produce
the same solutions in the same order, count the same nodes, record the
same branch failures, run out of budget at the same node and draw the same
random numbers.
"""

import random
from itertools import combinations, islice

from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.amalgamation import BudgetExhausted, CompletionSearch, enumerate_bases
from chroma.diagrams import DiagramSet, Language, RelSymbol
from conftest import t1_set


def direct_diagram(colors, subset):
    """The diagram of a colored subset from the definition, None unless monochromatic."""
    for k in range(1, len(subset) + 1):
        if len({colors[b] for b in combinations(subset, k)}) > 1:
            return None
    return tuple(colors[subset[:k]] for k in range(1, len(subset) + 1))


class ReferenceSearch:
    """The recursive search: candidates by id, shuffled on entering each level."""

    def __init__(self, universe, preset, language, family, budget=None, rng=None):
        universe = tuple(sorted(universe))
        self.preset = dict(preset)
        self.language, self.family = language, family
        self.budget, self.rng = budget, rng
        self.nodes = 0
        self.branch_failures = {}
        self.missing = [
            s
            for size in range(1, len(universe) + 1)
            for s in combinations(universe, size)
            if s not in self.preset
        ]

    def solutions(self):
        yield from self._search(0, dict(self.preset), {})

    def _search(self, idx, colors, assignment):
        if idx == len(self.missing):
            yield dict(assignment)
            return
        subset = self.missing[idx]
        symbols = self.language.symbols(len(subset))
        if self.rng is not None:
            self.rng.shuffle(symbols)
        for color in symbols:
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise BudgetExhausted
            if idx == 0:
                self.root = color
            colors[subset] = color
            diag = direct_diagram(colors, subset)
            if diag is not None and not self.family.allows(diag):
                self.branch_failures.setdefault(self.root, (subset, diag))
            else:
                assignment[subset] = color
                yield from self._search(idx + 1, colors, assignment)
                del assignment[subset]
            del colors[subset]


def run(search, cap):
    """Up to ``cap`` solutions with the node count at each, how the run ended, and the counters."""
    found, ended = [], "done"
    try:
        for solution in islice(search.solutions(), cap):
            found.append((list(solution.items()), search.nodes))
    except BudgetExhausted:
        ended = "budget"
    return found, ended, search.nodes, list(search.branch_failures.items())


def random_family(rng: random.Random) -> DiagramSet:
    language = Language.of({n: rng.randint(1, 3) for n in range(1, 6)})
    members = {()}
    for _ in range(rng.randint(1, 25)):
        w = rng.choice(sorted(m for m in members if len(m) < 5))
        members.add(w + (rng.choice(language.symbols(len(w) + 1)),))
    return DiagramSet.of(language, members)


def random_preset(rng: random.Random, universe, family):
    """Empty, or a class coloring of a random part of the universe."""
    part = tuple(p for p in universe if rng.random() < 0.6)
    if not part or rng.random() < 0.3:
        return {}
    search = ReferenceSearch(part, {}, family.language, family, rng=random.Random(rng.random()))
    solutions = list(islice(search.solutions(), 5))
    return rng.choice(solutions) if solutions else {}


class TestAgainstRecursiveReference:
    @given(
        st.integers(0, 10**6),
        st.sampled_from([None, 1, 3, 10, 40, 200]),
        st.sampled_from([None, 0, 1, 2]),
        st.integers(0, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_solutions_counters_and_random_stream(self, seed, budget, rng_seed, size):
        rng = random.Random(seed)
        family = t1_set() if seed % 5 == 0 else random_family(rng)
        if size == 4 and budget is None:
            budget = 500
        universe = tuple(sorted(rng.sample(range(8), size)))
        preset = random_preset(rng, universe, family)
        cap = rng.choice([1, 2, 50])
        runs = []
        for cls in (CompletionSearch, ReferenceSearch):
            shuffle = None if rng_seed is None else random.Random(rng_seed)
            search = cls(universe, preset, family.language, family, budget, shuffle)
            runs.append((run(search, cap), search.missing, shuffle and shuffle.getstate()))
        assert runs[0] == runs[1]

    def test_random_families_reach_every_ending(self):
        """Families drawn as above give searches that end done, unsat and out of budget."""
        ended, failures = set(), 0
        for seed in range(60):
            rng = random.Random(seed)
            family = random_family(rng)
            universe = tuple(range(rng.randint(1, 3)))
            budget = rng.choice([None, 5])
            search = CompletionSearch(universe, {}, family.language, family, budget, random.Random(seed))
            found, end, _, branch_failures = run(search, 50)
            ended.add(end if end == "budget" or found else "unsat")
            failures += bool(branch_failures)
        assert ended == {"done", "budget", "unsat"}
        assert failures > 0


class TestNoRecursionCeiling:
    def test_ten_point_bases_of_a_chain(self):
        """1,023 missing subsets is deeper than the default recursion limit."""
        arity = 10
        language = Language.of({n: 1 for n in range(1, arity + 1)})
        chain = tuple(RelSymbol(n, 0) for n in range(1, arity + 1))
        family = DiagramSet.of(language, {chain[:n] for n in range(arity + 1)})
        bases = list(enumerate_bases(arity, family))
        assert len(bases) == 1
        assert len(bases[0].colors) == 2**arity - 1
        assert all(color.id == 0 for color in bases[0].colors.values())
