"""Searches that start from the diagram numbers an earlier search decided.

A scan's base search numbers the diagrams of the base's subsets; its
extension searches start from those numbers, and its system searches from
the numbers of both extensions (``_start``), instead of walking a preset
dict again. Every seeded search must match the same search on the preset
dict: the same start, solutions, node counts, branch failures, budget
ending and random stream. A family that takes no attributes gets a fresh
number table from each ``_diagram_numbers`` call, but its structures' numbers
name it, so ``_start`` reuses the table they carry and numbers nothing again.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma import amalgamation
from chroma.amalgamation import (
    BudgetExhausted,
    CompletionSearch,
    _completions,
    _start,
    _system_preset,
    _system_universe,
    ap_search,
    dap_search,
    enumerate_special_systems,
    sample_special_system,
    spectra_scan,
)
from chroma.diagrams import DiagramSet
from chroma.structures import ColoringStructure
from conftest import t1_set
from test_completion_search import random_family, run

BUDGETS = st.sampled_from([None, 1, 4, 30, 300])


def both(universe, preset, family, budget, rng_seed, cap, start):
    """The outcome of the seeded search and of the same search on the preset dict."""
    outcomes = []
    for seed_start in (start, None):
        rng = None if rng_seed is None else random.Random(rng_seed)
        search = CompletionSearch(
            universe, {} if seed_start else preset, family.language, family, budget, rng,
            start=seed_start,
        )
        begun = (list(search._numbers), list(search._missing), search.missing)
        outcomes.append((begun, run(search, cap), rng and rng.getstate()))
    return outcomes


def bases(lam, family, budget, rng):
    """Up to three base colorings, each carrying its numbers."""
    found = []
    try:
        for base in _completions(tuple(range(lam)), {}, family, budget, rng):
            found.append(base)
            if len(found) == 3:
                break
    except BudgetExhausted:
        pass
    return found


class TestSeededMatchesPresetWalk:
    @given(
        st.integers(0, 10**6),
        st.integers(0, 3),
        BUDGETS,
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([1, 3, 50]),
    )
    @settings(max_examples=150, deadline=None)
    def test_base_extension_and_system_searches(self, seed, lam, budget, rng_seed, cap):
        rng = random.Random(seed)
        family = t1_set() if seed % 5 == 0 else random_family(rng)
        if lam == 3 and budget is None:
            budget = 2000
        shuffle = None if rng_seed is None else random.Random(rng_seed)
        x, a1, a2 = tuple(range(lam)), lam, lam + 1
        for base in bases(lam, family, budget, shuffle):
            start = _start(family, base)
            assert start is not None
            sides = []
            for a in (a1, a2):
                universe = x + (a,)
                seeded, walked = both(universe, base.colors, family, budget, rng_seed, cap, start)
                assert seeded == walked
                try:
                    side = next(_completions(universe, base.colors, family, budget, None, False, start))
                except (BudgetExhausted, StopIteration):
                    break
                sides.append(side)
            if len(sides) < 2:
                continue
            c1, c2 = sides
            universe = x + (a1, a2)
            preset = {**c1.colors, **c2.colors}
            start = _start(family, c1, c2)
            seeded, walked = both(universe, preset, family, budget, rng_seed, cap, start)
            assert seeded == walked

    @given(st.integers(0, 10**6), st.integers(0, 3), BUDGETS, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_systems_of_both_streams(self, seed, lam, budget, first_only):
        rng = random.Random(seed)
        family = random_family(rng)
        budget = budget or 2000
        systems = []
        try:
            for sys in enumerate_special_systems(lam, family, budget, first_only):
                systems.append(sys)
                if len(systems) == 20:
                    break
        except BudgetExhausted:
            pass
        draws = random.Random(seed)
        for _ in range(5):
            try:
                sys = sample_special_system(lam, family, draws, budget)
            except BudgetExhausted:
                continue
            if sys is not None:
                systems.append(sys)
        for sys in systems:
            start = _start(family, sys.c1, sys.c2)
            assert start is not None
            universe, preset = _system_universe(sys), _system_preset(sys)
            for rng_seed in (None, seed):
                seeded, walked = both(universe, preset, family, budget, rng_seed, 50, start)
                assert seeded == walked


class SlottedFamily:
    """A diagram set's class through an object that takes no attributes."""

    __slots__ = ("language", "_ds")

    def __init__(self, ds: DiagramSet):
        self.language, self._ds = ds.language, ds

    def allows(self, w) -> bool:
        return self._ds.allows(w)


class TestSlottedFamilyFallsBack:
    def test_searches_reuse_the_numbers_sides_carry(self):
        family = SlottedFamily(t1_set())
        base = next(_completions((0, 1), {}, family, None))
        sys = next(enumerate_special_systems(1, family))
        for universe, preset, sides in (
            ((0, 1, 2), base.colors, (base,)),
            (_system_universe(sys), _system_preset(sys), (sys.c1, sys.c2)),
        ):
            kept = [vars(side)["_codes"] for side in sides]
            start = _start(family, *sides)
            assert all(k[0] is family and k[1] is start[0] for k in kept)
            seeded = CompletionSearch(universe, {}, family.language, family, start=start)
            walked = CompletionSearch(universe, preset, family.language, family)
            assert (seeded._missing, run(seeded, 50)) == (tuple(walked._missing), run(walked, 50))

    @pytest.mark.parametrize("seed", range(6))
    def test_scans_match_the_diagram_set(self, seed):
        ds = t1_set() if seed == 0 else random_family(random.Random(seed))
        family = SlottedFamily(ds)
        for kwargs in ({}, {"budget": 40}, {"mode": "sampled", "seed": seed, "trials": 8}):
            assert spectra_scan(family, 2, **kwargs) == spectra_scan(ds, 2, **kwargs)

    @pytest.mark.parametrize("seed", range(3))
    def test_scans_walk_as_often_as_on_the_diagram_set(self, seed, monkeypatch):
        ds = t1_set() if seed == 0 else random_family(random.Random(seed))
        walks = []
        number = amalgamation._number
        monkeypatch.setattr(amalgamation, "_number", lambda *args: walks.append(args[0]) or number(*args))
        counts = []
        for family in (ds, SlottedFamily(ds)):
            walks.clear()
            spectra_scan(family, 3)
            counts.append(len(walks))
        assert counts[0] == counts[1]


class TestSlottedFamilyIsNumberedOnce:
    """A system search on a family without attributes walks each side once, in ``validate_system``."""

    @pytest.mark.parametrize("search", [dap_search, ap_search])
    def test_each_side_is_walked_once(self, search, monkeypatch):
        family = SlottedFamily(t1_set())
        fresh = [
            sys for sys in enumerate_special_systems(1, t1_set())
            if sys.c1.colors[(sys.a1,)] != sys.c2.colors[(sys.a2,)]  # not identified, so ap_search searches
        ][0]
        # Copies of the sides, so that no numbers from the enumeration are kept on them.
        sides = [ColoringStructure(c.universe, dict(c.colors)) for c in (fresh.c1, fresh.c2)]
        sys = type(fresh)(fresh.x, fresh.a1, fresh.a2, *sides)
        walks = []
        number = amalgamation._number
        monkeypatch.setattr(amalgamation, "_number", lambda *args: walks.append(args[0]) or number(*args))
        result = search(sys, family)
        assert len(walks) == 2
        assert result == search(sys, t1_set())
