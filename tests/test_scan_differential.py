"""Differential gates for the one-pass spectra scan and the search core.

The scan trusts the systems it enumerates and shares one search between
the DAP and AP verdicts; the reference scans below go through the public,
validating ``dap_search`` and ``ap_search`` on every system instead. The
private search core must answer exactly as the public searches do.
"""

import random
from itertools import islice
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.amalgamation import (
    BudgetExhausted,
    CompletionSearch,
    ScanEntry,
    _agreement_holds,
    _sampled_systems,
    _search_system,
    _system_status,
    ap_search,
    dap_search,
    enumerate_special_systems,
    sample_special_system,
    spectra_scan,
    validate_system,
)
from chroma import amalgamation
from chroma.diagrams import DiagramSet, Language, full_tree_set
from chroma.structures import monochromatic_table
from conftest import split_everywhere, t1_set
from test_seeded_search import SlottedFamily


def reference_scan_exhaustive(lam: int, family, budget: Optional[int]) -> ScanEntry:
    dap_verdict, ap_verdict = "yes", "yes"
    dap_cert = ap_cert = None
    try:
        for sys in enumerate_special_systems(lam, family, budget):
            if dap_verdict != "no":
                res = dap_search(sys, family, budget)
                if res.status == "unsat":
                    dap_verdict, dap_cert = "no", sys
                elif res.status == "budget-exhausted":
                    dap_verdict = "unknown"
            if ap_verdict != "no":
                res = ap_search(sys, family, budget)
                if res.status == "unsat":
                    ap_verdict, ap_cert = "no", sys
                elif res.status == "budget-exhausted":
                    ap_verdict = "unknown"
            if dap_verdict == "no" and ap_verdict == "no":
                break
    except BudgetExhausted:
        if dap_verdict != "no":
            dap_verdict = "unknown"
        if ap_verdict != "no":
            ap_verdict = "unknown"
    return ScanEntry(dap_verdict, ap_verdict, dap_cert, ap_cert)


def reference_scan_sampled(
    lam: int, family, rng: random.Random, trials: int, budget: Optional[int]
) -> ScanEntry:
    dap_verdict, ap_verdict = "unknown", "unknown"
    dap_cert = ap_cert = None
    for _ in range(trials):
        try:
            sys = sample_special_system(lam, family, rng, budget)
        except BudgetExhausted:
            continue
        if sys is None:
            continue
        if dap_verdict != "no" and dap_search(sys, family, budget).status == "unsat":
            dap_verdict, dap_cert = "no", sys
        if ap_verdict != "no" and ap_search(sys, family, budget).status == "unsat":
            ap_verdict, ap_cert = "no", sys
        if dap_verdict == "no" and ap_verdict == "no":
            break
    return ScanEntry(dap_verdict, ap_verdict, dap_cert, ap_cert)


def random_family(seed: int) -> DiagramSet:
    """A random tree over at most two symbols per arity, up to arity 4.

    Small enough that scanning every special system up to size 2 stays
    cheap; every other tree is split so that more sizes answer yes.
    """
    rng = random.Random(seed)
    language = Language.of({n: rng.randint(1, 2) for n in range(1, 5)})
    members = {()}
    for _ in range(rng.randint(1, 12)):
        w = rng.choice(sorted(m for m in members if len(m) < 4))
        members.add(w + (rng.choice(language.symbols(len(w) + 1)),))
    ds = DiagramSet.of(language, members)
    return split_everywhere(ds) if seed % 2 else ds


BUDGETS = st.sampled_from([None, 2, 5, 25])


class TestScanAgainstReference:
    @given(st.integers(0, 10_000), BUDGETS)
    @settings(max_examples=100, deadline=None)
    def test_exhaustive_entries_match(self, seed, budget):
        ds = random_family(seed)
        table = spectra_scan(ds, 2, budget=budget)
        for lam, entry in table.items():
            assert entry == reference_scan_exhaustive(lam, ds, budget)

    @given(st.integers(0, 10_000), BUDGETS)
    @settings(max_examples=50, deadline=None)
    def test_sampled_entries_match(self, seed, budget):
        ds = random_family(seed)
        table = spectra_scan(ds, 2, mode="sampled", seed=seed, trials=6, budget=budget)
        for lam, entry in table.items():
            rng = random.Random(seed * 1000003 + lam)
            assert entry == reference_scan_sampled(lam, ds, rng, 6, budget)

    def test_reference_instance_with_refutations(self):
        ds = t1_set()
        for budget in (None, 1, 4):
            table = spectra_scan(ds, 2, budget=budget)
            for lam, entry in table.items():
                assert entry == reference_scan_exhaustive(lam, ds, budget)
        assert spectra_scan(ds, 1)[1].ap == "no"


class TestOnePassPerSystem:
    def test_no_validation_and_at_most_one_search(self, monkeypatch):
        ds = full_tree_set(Language.of({1: 2, 2: 2, 3: 2, 4: 2}), 4)
        systems = sum(len(list(enumerate_special_systems(lam, ds))) for lam in (0, 1, 2))
        calls = {"validate_system": 0, "_system_status": 0}
        for name in calls:
            real = getattr(amalgamation, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(amalgamation, name, counted)
        table = spectra_scan(ds, 2)
        assert all(entry == ScanEntry("yes", "yes") for entry in table.values())
        assert calls["validate_system"] == 0
        assert 0 < calls["_system_status"] <= systems


def validated_stream(systems, family) -> int:
    """Validate every system of a stream against ``family`` until it runs out of budget."""
    count = 0
    try:
        for sys in systems:
            validate_system(sys, family)
            count += 1
    except BudgetExhausted:
        pass
    return count


class TestScannedSystemsAreValid:
    """The scan trusts its streams; these tests hold them to ``validate_system``."""

    @given(st.integers(0, 10_000), st.sampled_from([None, 2, 5]))
    @settings(max_examples=60, deadline=None)
    def test_random_families(self, seed, budget):
        ds = random_family(seed)
        for lam in (0, 1, 2):
            validated_stream(enumerate_special_systems(lam, ds, budget), ds)
            rng = random.Random(seed * 1000003 + lam)
            validated_stream(_sampled_systems(lam, ds, rng, 6, budget), ds)

    def test_reference_instance(self):
        ds = t1_set()
        for budget in (None, 2, 5):
            for lam in (0, 1, 2):
                validated_stream(enumerate_special_systems(lam, ds, budget), ds)
                validated_stream(_sampled_systems(lam, ds, random.Random(lam), 6, budget), ds)
        assert validated_stream(enumerate_special_systems(2, ds), ds) > 0


def status_matches(ds: DiagramSet, lam: int, seed: int) -> set[str]:
    """Check ``_system_status`` against the result path's status on every scan stream.

    Systems come from the complete and the don't-care class enumerations and
    from sampling. They are searched under the family that numbered them, so
    the status search starts from numbers, and under a copy of it and a
    family without an attribute dict, so it walks the preset. Gives the
    statuses seen.
    """
    statuses = set()
    for family in (ds, SlottedFamily(ds)):
        systems = [
            *islice(enumerate_special_systems(lam, family), 40),
            *islice(enumerate_special_systems(lam, family, first_only=True), 40),
            *_sampled_systems(lam, family, random.Random(seed), 6, None),
        ]
        for searched in (family, DiagramSet(ds.language, ds.members)):
            for sys in systems:
                for budget in (None, 3, 40):
                    status = _system_status(sys, searched, budget)
                    assert status == _search_system(sys, searched, budget).status
                    statuses.add(status)
    return statuses


def preset_table(search) -> dict:
    """Diagrams of a search's preset subsets, None where not monochromatic."""
    diagrams, missing = search._table[0], set(search._missing)
    return {
        subset: None if code is None else diagrams[code]
        for i, (subset, code) in enumerate(zip(search._subsets, search._numbers))
        if i and i not in missing
    }


class TestSearchCore:
    def test_core_matches_the_public_searches(self):
        statuses = set()
        for seed in range(12):
            ds = random_family(seed)
            for lam in (0, 1, 2):
                for i, sys in enumerate(enumerate_special_systems(lam, ds)):
                    if i == 40:
                        break
                    for budget in (None, 3):
                        core = _search_system(sys, ds, budget)
                        assert core == dap_search(sys, ds, budget)
                        if not _agreement_holds(sys):
                            assert core == ap_search(sys, ds, budget)
                        statuses.add(core.status)
        assert statuses == {"witness", "unsat", "budget-exhausted"}

    def test_status_search_matches_the_result_path(self):
        statuses = set()
        for seed in range(12):
            ds = t1_set() if seed == 0 else random_family(seed)
            for lam in (0, 1, 2):
                statuses |= status_matches(ds, lam, seed)
        assert statuses == {"witness", "unsat", "budget-exhausted"}

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_status_search_matches_the_result_path_to_size_3(self, seed):
        ds = random_family(seed)
        for lam in (0, 1, 2, 3):
            status_matches(ds, lam, seed)

    def test_preset_table_is_both_sides_tables(self):
        for ds in (t1_set(), random_family(3)):
            for lam in (0, 1, 2):
                for sys in enumerate_special_systems(lam, ds):
                    universe = tuple(sorted(sys.x + (sys.a1, sys.a2)))
                    preset = {**sys.c1.colors, **sys.c2.colors}
                    search = CompletionSearch(universe, preset, ds.language, ds)
                    sides = {**monochromatic_table(sys.c1), **monochromatic_table(sys.c2)}
                    assert preset_table(search) == sides
