"""Differential gates for the one start of every system search.

``validate_system`` decides each side's membership by numbering its lattice,
and the public searches start from those numbers wherever the fresh points
sort (``_start``). The reference below validates with ``in_class`` and walks
the merged preset of both sides, as the searches once did. On systems whose
fresh points sit before, between and after the base, in either order, both
must give the same results, node counts, refutations, witnesses (with their
colors in the same order) and error texts.

The exhaustive scan ends at the first size with no system, since no larger
size has a base then; its table must match the per-size fold, and a size far
beyond any lattice that fits in memory must answer at once.
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import chroma
from chroma import amalgamation
from chroma.amalgamation import (
    AmalgamResult,
    CompletionSearch,
    HypothesesError,
    InvalidSystemError,
    RefutationBranch,
    SpecialSystem,
    _scan,
    ap_search,
    dap_from_ap,
    dap_search,
    enumerate_special_systems,
    spectra_scan,
)
from chroma._record import replace
from chroma.diagrams import DiagramSet, Language, RelSymbol
from chroma.structures import ColoringStructure, canonical_subsets, in_class, validate_structure
from conftest import A, B, t1_set
from test_amalgamator_differential import CASE3_FAMILY, case3_system, criterion7_family, repeating_family
from test_amalgamation import coloring
from test_scan_differential import random_family
from test_seeded_search import SlottedFamily

BUDGETS = (None, 1, 6, 60)


def reference_validate(sys_, family):
    """``validate_system`` with membership decided by ``in_class``."""
    if sys_.a1 == sys_.a2:
        raise InvalidSystemError("the two fresh points must differ")
    if sys_.a1 in sys_.x or sys_.a2 in sys_.x:
        raise InvalidSystemError("fresh points may not lie in the base")
    if tuple(sorted(set(sys_.x))) != sys_.x:
        raise InvalidSystemError("base must be sorted and duplicate-free")
    for label, c, a in (("first", sys_.c1, sys_.a1), ("second", sys_.c2, sys_.a2)):
        if c.universe != tuple(sorted(sys_.x + (a,))):
            raise InvalidSystemError(f"{label} coloring must cover the base plus its point")
        validate_structure(c)
    for subset in canonical_subsets(sys_.x):
        if sys_.c1.colors[subset] != sys_.c2.colors[subset]:
            raise InvalidSystemError(f"colorings disagree on base subset {subset}")
    for label, c in (("first", sys_.c1), ("second", sys_.c2)):
        report = in_class(c, family)
        if not report:
            raise InvalidSystemError(
                f"{label} coloring leaves the class at subset {report.violating_subset}"
            )


def reference_search(sys_, family, budget):
    """The disjoint search over the merged preset of both sides."""
    universe = tuple(sorted(sys_.x + (sys_.a1, sys_.a2)))
    preset = {**sys_.c1.colors, **sys_.c2.colors}
    search = CompletionSearch(universe, preset, family.language, family, budget)
    try:
        solution = search.first_solution()
    except amalgamation.BudgetExhausted:
        return AmalgamResult("budget-exhausted", "search", nodes=search.nodes)
    if solution is None:
        branches = tuple(RefutationBranch(c, s, d) for c, (s, d) in search.branch_failures.items())
        return AmalgamResult("unsat", "search", refutation=branches, nodes=search.nodes)
    witness = ColoringStructure(universe, {**preset, **solution})
    return AmalgamResult("witness", "search", witness=witness, nodes=search.nodes)


def outcome(run, sys_, family, budget):
    """A call's result with its witness's color order, or the text of the error it raises."""
    try:
        result = run(sys_, family, budget)
    except (InvalidSystemError, HypothesesError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return result, result.witness and list(result.witness.colors)


def relabeled(sys_, rng):
    """``sys_`` with its points renamed: the base in order, the fresh points anywhere."""
    points = rng.sample(range(2 * len(sys_.x) + 6), len(sys_.x) + 2)
    base = sorted(points[: len(sys_.x)])
    name = dict(zip(sys_.x, base)) | {sys_.a1: points[-2], sys_.a2: points[-1]}

    def rename(c):
        colors = {tuple(sorted(name[p] for p in s)): v for s, v in c.colors.items()}
        return ColoringStructure(tuple(sorted(name[p] for p in c.universe)), colors)

    return SpecialSystem(tuple(base), name[sys_.a1], name[sys_.a2], rename(sys_.c1), rename(sys_.c2))


def corrupted(sys_, language, rng):
    """``sys_`` with one to three colors of one side moved to the other symbol of their arity.

    Half the time only sets through the side's fresh point move, so that the
    sides still agree on the base and membership decides.
    """
    side, point = rng.choice((("c1", sys_.a1), ("c2", sys_.a2)))
    c = getattr(sys_, side)
    through = rng.random() < 0.5
    subsets = [s for s in c.colors if language.count(len(s)) == 2 and (point in s or not through)]
    colors = dict(c.colors)
    for subset in rng.sample(subsets, min(len(subsets), rng.randint(1, 3))):
        colors[subset] = RelSymbol(len(subset), 1 - colors[subset].id)
    return replace(sys_, **{side: ColoringStructure(c.universe, colors)})


def placements(family, lam, rng, count):
    """Up to ``count`` relabeled systems of size ``lam``, some corrupted, some left in place."""
    systems = []
    for sys_ in enumerate_special_systems(lam, family):
        if len(systems) == count:
            break
        if rng.random() < 0.25:
            systems.append(sys_)
            continue
        moved = relabeled(sys_, rng)
        systems.append(corrupted(moved, family.language, rng) if rng.random() < 0.4 else moved)
    return systems


def compare(family, systems, runs):
    """Assert each run gives the reference's outcome on every system; return the outcomes seen."""
    seen = []
    for sys_ in systems:
        for budget in BUDGETS:
            for run in runs:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(amalgamation, "validate_system", reference_validate)
                    patch.setattr(amalgamation, "_search_system", reference_search)
                    want = outcome(run, sys_, family, budget)
                # Twice: the second call finds the numbers the first left on the sides.
                assert outcome(run, sys_, family, budget) == want
                assert outcome(run, sys_, family, budget) == want
                seen.append(want if isinstance(want, str) else want[0].status)
    return seen


def order(sys_):
    """Where the fresh points sort: before, between or after the base, and which comes first."""
    spots = {"before" if a < sys_.x[0] else "after" if a > sys_.x[-1] else "between"
             for a in (sys_.a1, sys_.a2)} if sys_.x else {"empty"}
    return frozenset(spots | {"a1 > a2" if sys_.a1 > sys_.a2 else "a1 < a2"})


class TestPublicSearchesMatchTheMergedPreset:
    def test_random_families(self):
        rng = random.Random(21)
        seen, orders = [], set()
        families = [t1_set()] + [random_family(seed) for seed in range(16)]
        for ds in families:
            for lam in (0, 1, 2):
                systems = placements(ds, lam, rng, 16)
                orders |= {order(s) for s in systems}
                seen += compare(ds, systems, (dap_search, ap_search))
        statuses = {s for s in seen if not s.startswith("InvalidSystemError")}
        assert statuses >= {"witness", "unsat", "budget-exhausted", "identification"}
        assert any(s.startswith("InvalidSystemError: first coloring leaves") for s in seen)
        assert any(s.startswith("InvalidSystemError: second coloring leaves") for s in seen)
        assert any(s.startswith("InvalidSystemError: colorings disagree") for s in seen)
        assert {"before", "between", "after", "a1 > a2", "a1 < a2"} <= set().union(*orders)

    def test_constructive_amalgamator(self):
        rng = random.Random(7)
        seen = []
        families = [repeating_family(seed) for seed in range(12)]
        families += [criterion7_family(rng) for _ in range(2)]
        for ds in families:
            for lam in (0, 1, 2):
                seen += compare(ds, placements(ds, lam, rng, 8), (dap_from_ap,))
        seen += compare(CASE3_FAMILY, [case3_system(), relabeled(case3_system(), rng)], (dap_from_ap,))
        assert any(s.startswith("HypothesesError") for s in seen)
        assert {"witness"} <= set(seen)

    def test_family_without_attributes(self):
        rng = random.Random(5)
        for seed in range(4):
            ds = t1_set() if seed == 0 else random_family(seed)
            family = SlottedFamily(ds)
            for lam in (0, 1, 2):
                compare(family, placements(ds, lam, rng, 10), (dap_search, ap_search))

    def test_first_forbidden_subset_is_reported(self):
        # Every pair of B-colored points is monochromatic with a diagram t1
        # refuses, so a side with three B points leaves the class at three
        # pairs; with one B base point, only the second side's pair does.
        systems = []
        for x, a1, a2 in (((1, 3), 0, 2), ((0, 1), 5, 4), ((2, 4), 3, 0)):
            sides = [coloring(x + (a,), {(p,): B for p in x + (a,)}) for a in (a1, a2)]
            systems.append(SpecialSystem(x, a1, a2, *sides))
            c1, c2 = (coloring(x[:1] + (a,), {x[:1]: B, (a,): s}) for a, s in ((a1, A), (a2, B)))
            systems.append(SpecialSystem(x[:1], a1, a2, c1, c2))
        seen = compare(t1_set(), systems, (dap_search, ap_search))
        assert {s.split(" at ")[0] for s in seen} == {
            "InvalidSystemError: first coloring leaves the class",
            "InvalidSystemError: second coloring leaves the class",
        }

    def test_membership_is_decided_on_every_call(self):
        c1 = coloring((0, 1), {(0,): B, (1,): A})
        c2 = coloring((0, 2), {(0,): B, (2,): A})
        sys_ = SpecialSystem((0,), 1, 2, c1, c2)
        before, after = t1_set(), t1_set()
        assert "InvalidSystemError" not in str(compare(before, [sys_], (dap_search, ap_search)))
        # The sides now carry numbers. Recoloring one in place is seen only by
        # a new family object: a system is validated once per family object,
        # so on ``before`` the searches would answer from the cached check.
        c2.colors[(2,)] = B
        assert set(compare(after, [sys_], (dap_search, ap_search))) == {
            "InvalidSystemError: second coloring leaves the class at subset (0, 2)"
        }

    def test_shape_errors_keep_their_text(self):
        sys_ = next(enumerate_special_systems(1, t1_set()))
        bad = [
            replace(sys_, a2=sys_.a1),
            replace(sys_, a1=0),
            replace(sys_, c2=sys_.c1),
        ]
        seen = compare(t1_set(), bad, (dap_search, ap_search, dap_from_ap))
        assert all(s.startswith("InvalidSystemError") for s in seen)


def per_size_fold(family, lam_max):
    """The unbudgeted exhaustive scan, every size folded from its own stream."""
    return {
        lam: _scan(enumerate_special_systems(lam, family, None, True), "yes", family, None, True)
        for lam in range(lam_max + 1)
    }


# One symbol at arity 1 and only the diagrams () and (A,): two points always
# form a monochromatic pair, so the class has no structure of two points.
SINGLETONS = DiagramSet.of(Language.of({1: 1, 2: 2}), [(), (A,)])


class TestScanEndsAtTheFirstEmptySize:
    @pytest.mark.parametrize("seed", range(8))
    def test_table_matches_the_per_size_fold(self, seed):
        ds = SINGLETONS if seed == 0 else random_family(seed)
        assert spectra_scan(ds, 3) == per_size_fold(ds, 3)

    def test_sizes_past_the_class_answer_yes(self):
        table = spectra_scan(SINGLETONS, 6)
        assert table[0].dap == "no"
        assert table == per_size_fold(SINGLETONS, 6)
        assert all((e.dap, e.ap) == ("yes", "yes") for lam, e in table.items() if lam)

    def test_budgeted_scans_go_on(self):
        # A budgeted base search may run out at a size past an empty one.
        unknown_after_empty = 0
        for seed in range(40):
            ds = random_family(seed)
            for budget in (2, 5, 25):
                table = spectra_scan(ds, 3, budget=budget)
                streams = [enumerate_special_systems(lam, ds, budget) for lam in range(4)]
                assert table == {lam: _scan(s, "yes", ds, budget) for lam, s in enumerate(streams)}
                unknown_after_empty += any(
                    table[lam].dap == "yes" and table[lam + 1].dap == "unknown" for lam in range(3)
                )
        assert unknown_after_empty

    def test_sampled_scans_go_on(self):
        sampled = spectra_scan(SINGLETONS, 3, mode="sampled", seed=1, trials=3)
        assert [e.dap for e in sampled.values()] == ["no", "unknown", "unknown", "unknown"]

    def test_forty_sizes_fit_in_a_small_address_space(self, tmp_path):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"arities": {"1": 1}, "members": [[]]}))
        src = str(Path(chroma.__file__).parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        argv = [sys.executable, "-m", "chroma.cli", "spectra", "--diagrams", str(one), "--lambda-max"]
        # The cap makes a lattice that no longer fits fail fast instead of filling the machine.
        runs = [
            subprocess.run(
                argv + [lam], env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60
            )
            for lam in ("2", "40")
        ]
        assert [(p.returncode, p.stderr) for p in runs] == [(0, ""), (0, "")]
        short, long = (json.loads(p.stdout) for p in runs)
        assert sorted(map(int, long)) == list(range(41))
        assert all(entry == short["0"] for entry in (*short.values(), *long.values()))
