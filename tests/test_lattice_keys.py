"""Lattice facts kept under what they depend on, the one-walk case 3, and the lattice limit.

Subset lists, candidate symbols and shuffle steps, and the through-point
subsets that identification compares are cached by universe, by language and
size, and by base and point; a family object keeps only its diagram numbers.
``_agreement_holds`` reads the two sides' colors through cached getters; the
reference below is the loop it replaced, which sorts every set it looks up.
Case 3 of ``dap_from_ap`` decides the recolored side's membership in the
walk its search starts from. A scan that would build a lattice above
``LATTICE_LIMIT`` points stops with exit 2 before building it.
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
    CompletionSearch,
    SpecialSystem,
    _agreement_holds,
    _candidates,
    dap_from_ap,
    dap_search,
    enumerate_special_systems,
    sample_special_system,
    spectra_scan,
)
from chroma._record import replace
from chroma.cli import main, system_to_json
from chroma.diagrams import Language, RelSymbol, diagram_set_to_json
from chroma.structures import (
    LATTICE_LIMIT,
    ColoringStructure,
    LatticeTooLarge,
    _one_smaller,
    _subsets,
    canonical_subsets,
)
from conftest import t1_set
from test_amalgamator_differential import CASE3_FAMILY, case3_system
from test_scan_differential import random_family
from test_system_start import order, relabeled


def reference_agreement(sys_: SpecialSystem) -> bool:
    for subset in canonical_subsets(sys_.x, 0):
        left = sys_.c1.colors[tuple(sorted(subset + (sys_.a1,)))]
        right = sys_.c2.colors[tuple(sorted(subset + (sys_.a2,)))]
        if left != right:
            return False
    return True


def moved_once(sys_: SpecialSystem, language: Language):
    """``sys_`` with ``c2`` recolored at exactly one set through ``a2``, once per such set.

    Only sets whose arity has a second symbol are moved, so each variant
    differs from ``sys_`` at exactly one through-point subset.
    """
    for c in canonical_subsets(sys_.x, 0):
        subset = tuple(sorted(c + (sys_.a2,)))
        if language.count(len(subset)) > 1:
            old = sys_.c2.colors[subset]
            colors = {**sys_.c2.colors, subset: RelSymbol(len(subset), 1 - min(old.id, 1))}
            yield replace(sys_, c2=ColoringStructure(sys_.c2.universe, colors))


def systems(rng):
    """Enumerated, sampled and relabeled systems of random families, each with its family."""
    for seed in range(10):
        ds = t1_set() if seed == 0 else random_family(seed)
        for lam in (0, 1, 2, 3):
            for i, sys_ in enumerate(enumerate_special_systems(lam, ds)):
                if i == 30:
                    break
                yield ds, sys_
                yield ds, relabeled(sys_, rng)
            for _ in range(5):
                sys_ = sample_special_system(lam, ds, rng)
                if sys_ is not None:
                    yield ds, sys_


class TestIdentification:
    def test_agreement_matches_the_sorting_loop(self):
        rng = random.Random(22)
        seen, orders, flipped = set(), set(), 0
        for ds, sys_ in systems(rng):
            want = reference_agreement(sys_)
            assert _agreement_holds(sys_) == want
            seen.add(want)
            if sys_.x:
                orders.add(order(sys_))
            for moved in moved_once(sys_, ds.language):
                assert _agreement_holds(moved) == reference_agreement(moved)
                flipped += want and not reference_agreement(moved)
        assert seen == {True, False}
        assert flipped
        assert {"before", "between", "after", "a1 > a2", "a1 < a2"} <= set().union(*orders)


class TestLatticeKeys:
    def test_families_keep_only_their_diagram_numbers(self):
        ds = random_family(3)
        before = set(vars(ds))
        spectra_scan(ds, 2)
        spectra_scan(ds, 2, mode="sampled", seed=1, trials=4)
        for sys_ in enumerate_special_systems(1, ds):
            dap_search(sys_, ds)
        assert set(vars(ds)) - before == {"_diagram_numbers"}

    def test_candidates_follow_the_language_value(self):
        language = Language.of({1: 2, 2: 3, 3: 1}, repeat=True)
        same = Language.of({1: 2, 2: 3, 3: 1}, repeat=True)
        assert _candidates(language, 4) is _candidates(same, 4)
        symbols, steps = _candidates(language, 4)
        for subset, at, step in zip(canonical_subsets(range(4), 0), symbols, steps):
            assert at == tuple(language.symbols(len(subset)))
            assert step == tuple((k, (k + 1).bit_length()) for k in range(len(at) - 1, 0, -1))

    def test_searches_on_one_universe_share_its_subsets(self):
        first = CompletionSearch((3, 5, 9), {}, t1_set().language, t1_set())
        second = CompletionSearch((9, 5, 3), {}, random_family(2).language, random_family(2))
        assert first._subsets is second._subsets


class TestCaseThreeWalksOnce:
    def counted(self, monkeypatch):
        calls = {"walks": 0, "in_class": 0}
        for name, key in (("_number", "walks"), ("in_class", "in_class")):
            real = getattr(amalgamation, name)

            def counting(*args, real=real, key=key):
                calls[key] += 1
                return real(*args)

            monkeypatch.setattr(amalgamation, name, counting)
        return calls

    def test_recolored_side_is_walked_once(self, monkeypatch):
        calls = self.counted(monkeypatch)
        result = dap_from_ap(case3_system(), CASE3_FAMILY)
        assert result.method == "case3"
        # Both sides when validated, the recolored side when its search starts,
        # and in_class on the amalgam alone.
        assert calls == {"walks": 3, "in_class": 1}

    def test_recolored_side_outside_the_class_is_a_bug(self, monkeypatch):
        sys_ = case3_system()
        real = amalgamation._number

        def forbid_recolored(universe, color, table, allows):
            codes, uncolored, forbidden = real(universe, color, table, allows)
            if color.__self__ is sys_.c1.colors or color.__self__ is sys_.c2.colors:
                return codes, uncolored, forbidden
            return codes, uncolored, universe[:4]

        monkeypatch.setattr(amalgamation, "_number", forbid_recolored)
        with pytest.raises(RuntimeError, match=r"^recolored side: .*\(0, 1, 2, 3\); this is a bug$"):
            dap_from_ap(sys_, CASE3_FAMILY)


ONE = {"arities": {"1": 1}, "members": [[]]}


class TestLatticeLimit:
    def test_limit_is_refused_before_building(self, monkeypatch, tmp_path, capsys):
        system = tmp_path / "system.json"
        system.write_text(json.dumps(system_to_json(next(enumerate_special_systems(2, t1_set())))))
        family = tmp_path / "t1.json"
        family.write_text(json.dumps(diagram_set_to_json(t1_set())))
        monkeypatch.setattr(chroma.structures, "LATTICE_LIMIT", 3)
        # Lattices already built stay cached; drop them so that every size is asked again.
        for cached in (_subsets, _one_smaller, _candidates, amalgamation._join):
            cached.cache_clear()
        with pytest.raises(LatticeTooLarge, match="a search on 4 points exceeds the limit of 3 points"):
            CompletionSearch(range(4), {}, t1_set().language, t1_set())
        path = tmp_path / "one.json"
        path.write_text(json.dumps(ONE))
        argv = ["spectra", "--diagrams", str(path), "--lambda-max", "6"]
        for extra in (["--mode", "sampled", "--trials", "3"], ["--budget", "100"]):
            assert main(argv + extra) == 2
            out, err = capsys.readouterr()
            assert (out, err) == ("", "error: a search on 4 points exceeds the limit of 3 points\n")
        assert main(argv) == 0
        capsys.readouterr()
        # The sides have three points and pass validation; their union has four.
        assert main(["amalgamate", "--diagrams", str(family), "--system", str(system)]) == 2
        assert capsys.readouterr() == ("", "error: a search on 4 points exceeds the limit of 3 points\n")

    def test_probes_exit_2_in_a_small_address_space(self, tmp_path):
        one = tmp_path / "one.json"
        one.write_text(json.dumps(ONE))
        src = str(Path(chroma.__file__).parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        argv = [sys.executable, "-m", "chroma.cli", "spectra", "--diagrams", str(one), "--lambda-max", "40"]
        # The cap turns a lattice that would not fit into a quick MemoryError instead of a full machine.
        for extra in (["--mode", "sampled", "--trials", "3"], ["--budget", "100"]):
            run = subprocess.run(
                argv + extra, env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60
            )
            size = LATTICE_LIMIT + 1
            assert (run.returncode, run.stdout, run.stderr) == (
                2, "", f"error: a search on {size} points exceeds the limit of {LATTICE_LIMIT} points\n"
            )
