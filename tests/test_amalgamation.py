"""Amalgamation: searches, the constructive cases, spectra, and soundness."""

from itertools import combinations

import pytest

from chroma import amalgamation
from chroma._record import replace
from chroma.diagrams import DiagramSet, FullTree, Language, RelSymbol, full_tree_set
from chroma.rank import InfiniteDiagram
from chroma.structures import ColoringStructure, in_class, is_substructure, restrict
from chroma.amalgamation import (
    AmalgamResult,
    BudgetExhausted,
    HypothesesError,
    InvalidSystemError,
    SpecialSystem,
    amalgamate_infinite,
    amalgamate_quotient,
    amalgamate_triple,
    ap_search,
    dap_from_ap,
    dap_search,
    enumerate_bases,
    enumerate_extensions,
    enumerate_special_systems,
    spectra_scan,
    validate_system,
)
from conftest import A, B, C, D, E, T1_LANGUAGE, brute_system_unsat, t1_set
from test_scan_differential import random_family

E1 = RelSymbol(3, 1)


def coloring(universe, assignments) -> ColoringStructure:
    """A structure with the given subset colors, id 0 elsewhere."""
    universe = tuple(sorted(universe))
    colors = {}
    for size in range(1, len(universe) + 1):
        for subset in combinations(universe, size):
            colors[subset] = RelSymbol(size, 0)
    for subset, sym in assignments.items():
        colors[tuple(sorted(subset))] = sym
    return ColoringStructure(universe, colors)


def b_system() -> SpecialSystem:
    """Base colored A, both fresh points B, pairs C."""
    c1 = coloring((0, 1), {(0,): A, (1,): B, (0, 1): C})
    c2 = coloring((0, 2), {(0,): A, (2,): B, (0, 2): C})
    return SpecialSystem((0,), 1, 2, c1, c2)


def witness_extends(result: AmalgamResult, sys: SpecialSystem) -> bool:
    w = result.witness
    return all(w.colors[s] == c for s, c in sys.c1.colors.items()) and all(
        w.colors[s] == c for s, c in sys.c2.colors.items()
    )


class TestDapSearch:
    def test_unsat_when_fresh_pair_has_no_extension(self, t1):
        result = dap_search(b_system(), t1)
        assert result.status == "unsat"
        branches = {b.color: b.violating_subset for b in result.refutation}
        assert branches == {C: (1, 2), D: (1, 2)}
        assert all(b.diagram[0] == B for b in result.refutation)

    def test_empty_base_distinct_colors(self, t1):
        c1 = coloring((0,), {(0,): A})
        c2 = coloring((1,), {(1,): B})
        sys = SpecialSystem((), 0, 1, c1, c2)
        result = dap_search(sys, t1)
        assert result.status == "witness"
        assert result.witness.colors[(0, 1)] == C
        assert witness_extends(result, sys)

    def test_full_depth3_tree_finds_first_branch(self, t1):
        full = full_tree_set(t1.language, 3)
        c1 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
        c2 = coloring((0, 2), {(0,): A, (2,): A, (0, 2): C})
        sys = SpecialSystem((0,), 1, 2, c1, c2)
        result = dap_search(sys, full)
        assert result.status == "witness"
        assert result.witness.colors[(1, 2)] == C
        assert result.witness.colors[(0, 1, 2)] == E
        assert in_class(result.witness, full).ok

    def test_budget_exhaustion_reported(self, t1):
        full = full_tree_set(t1.language, 3)
        c1 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
        c2 = coloring((0, 2), {(0,): A, (2,): A, (0, 2): C})
        sys = SpecialSystem((0,), 1, 2, c1, c2)
        result = dap_search(sys, full, budget=1)
        assert result.status == "budget-exhausted"

    def test_rejects_invalid_system(self, t1):
        c1 = coloring((0, 1), {(0,): A, (1,): B, (0, 1): C})
        c2 = coloring((0, 2), {(0,): B, (2,): B, (0, 2): C})
        with pytest.raises(InvalidSystemError):
            dap_search(SpecialSystem((0,), 1, 2, c1, c2), t1)

    def test_witnesses_always_extend_and_belong(self, t1):
        for sys in enumerate_special_systems(1, t1):
            result = dap_search(sys, t1)
            if result.status == "witness":
                assert witness_extends(result, sys)
                assert in_class(result.witness, t1).ok

    def test_unsat_agrees_with_brute_enumeration_size_four(self, t1):
        assignments = {(i,): A for i in (0, 1, 2, 3)}
        assignments[(4,)] = B
        assignments.update({(0, 1): C, (1, 2): C, (2, 3): C, (0, 3): C, (0, 2): D, (1, 3): D})
        c1 = coloring(range(5), assignments)
        c2_map = {
            tuple(sorted(5 if p == 4 else p for p in s)): color
            for s, color in c1.colors.items()
        }
        c2 = ColoringStructure((0, 1, 2, 3, 5), c2_map)
        sys = SpecialSystem((0, 1, 2, 3), 4, 5, c1, c2)
        result = dap_search(sys, t1)
        assert result.status == "unsat"
        assert brute_system_unsat(sys, t1)

    def test_unsat_agrees_with_brute_enumeration_size_three(self):
        lang = Language.of({1: 2, 2: 2})
        ds = DiagramSet.of(lang, [(), (A,), (B,), (A, C), (A, D), (B, C), (B, D)])
        checked_unsat = 0
        for sys in enumerate_special_systems(3, ds):
            result = dap_search(sys, ds)
            if result.status == "unsat":
                checked_unsat += 1
                if checked_unsat > 3:
                    break
                assert brute_system_unsat(sys, ds)
        assert checked_unsat > 0


class TestApSearch:
    def test_identification_when_extensions_match(self, t1):
        result = ap_search(b_system(), t1)
        assert result.status == "identification"
        assert result.identified == {"a1": 1, "a2": 2, "as": 1}
        assert result.witness == b_system().c1

    def test_disjoint_when_identification_impossible(self, t1):
        c1 = coloring((0,), {(0,): A})
        c2 = coloring((1,), {(1,): B})
        result = ap_search(SpecialSystem((), 0, 1, c1, c2), t1)
        assert result.status == "witness"

    def test_unsat_when_both_branches_fail(self):
        ds = DiagramSet.of(Language.of({1: 2, 2: 2}), [(), (A,), (B,)])
        c1 = coloring((0, 1), {(0,): B, (1,): A, (0, 1): C})
        c2 = coloring((0, 2), {(0,): B, (2,): A, (0, 2): D})
        sys = SpecialSystem((0,), 1, 2, c1, c2)
        result = ap_search(sys, ds)
        assert result.status == "unsat"
        assert len(result.refutation) == 2


def deep_split_tree() -> DiagramSet:
    """Every head has splitting extensions and a chain four levels deep."""
    lang = Language.of({1: 2, 2: 2}, repeat=True)
    members = set()
    for head_id in range(2):
        head = (RelSymbol(1, head_id),)
        chain = head
        for arity in range(2, 6):
            members.add(chain + (RelSymbol(arity, 1),))
            chain = chain + (RelSymbol(arity, 0),)
            members.add(chain)
    members |= {(), (RelSymbol(1, 0),), (RelSymbol(1, 1),)}
    closed = set()
    for w in members:
        for i in range(len(w) + 1):
            closed.add(w[:i])
    return DiagramSet.of(lang, closed)


def case1_system():
    """A family and a system whose sides disagree over the base."""
    c1 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
    c2 = coloring((0, 2), {(0,): A, (2,): A, (0, 2): D})
    return deep_split_tree(), SpecialSystem((0,), 1, 2, c1, c2)


def case3_system():
    """A family and a size-4 system whose amalgam recolors one set."""
    lang = Language.of({1: 2, 2: 2}, repeat=True)
    ds = DiagramSet.of(lang, [(), (A,), (A, C), (A, D), (A, C, E)])
    base = {
        (0, 1): D, (0, 2): D, (0, 3): D,
        (1, 2): C, (1, 3): C, (2, 3): C,
        (1, 2, 3): E,
    }
    ext1 = {(0, 4): C, (1, 4): D, (2, 4): D, (3, 4): D}
    ext2 = {(0, 5): C, (1, 5): D, (2, 5): D, (3, 5): D}
    singles1 = {(i,): A for i in (0, 1, 2, 3, 4)}
    singles2 = {(i,): A for i in (0, 1, 2, 3, 5)}
    c1 = coloring(range(5), {**singles1, **base, **ext1})
    c2 = coloring([0, 1, 2, 3, 5], {**singles2, **base, **ext2})
    return ds, SpecialSystem((0, 1, 2, 3), 4, 5, c1, c2)


def spy(monkeypatch, name):
    """The argument lists of every later call of the amalgamation function ``name``."""
    calls = []
    real = getattr(amalgamation, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(amalgamation, name, wrapper)
    return calls


class TestDapFromAp:
    def test_case1_matches_search(self):
        ds, sys = case1_system()
        result = dap_from_ap(sys, ds)
        assert result.status == "witness" and result.method == "case1"
        assert result.witness == dap_search(sys, ds).witness

    def test_case2_colors_along_unrealized_extension(self):
        ds = deep_split_tree()
        c1 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
        c2 = coloring((0, 2), {(0,): A, (2,): A, (0, 2): C})
        sys = SpecialSystem((0,), 1, 2, c1, c2)
        result = dap_from_ap(sys, ds)
        assert result.status == "witness" and result.method == "case2"
        assert result.witness.colors[(1, 2)] == D
        assert in_class(result.witness, ds).ok
        assert witness_extends(result, sys)

    def test_case3_recolors_one_set_and_restores(self, monkeypatch):
        ds, sys = case3_system()
        validate_system(sys, ds)
        searched = spy(monkeypatch, "_search_system")
        result = dap_from_ap(sys, ds)
        assert result.status == "witness" and result.method == "case3"
        assert witness_extends(result, sys)
        assert in_class(result.witness, ds).ok
        assert result.witness.colors[(4, 5)] == C
        assert result.witness.colors[(0, 4, 5)] == E
        recolored = searched[0][0].c1
        diffs = [s for s, c in recolored.colors.items() if sys.c1.colors[s] != c]
        assert diffs == [(0, 1, 2, 4)]

    @pytest.mark.parametrize("make, method", [(case1_system, "case1"), (case3_system, "case3")])
    def test_validates_the_system_once(self, monkeypatch, make, method):
        ds, sys = make()
        validated = spy(monkeypatch, "validate_system")
        assert dap_from_ap(sys, ds).method == method
        assert validated == [(sys, ds)]

    def test_case3_window_empty_at_small_bases(self):
        lang = Language.of({1: 2, 2: 2}, repeat=True)
        ds = DiagramSet.of(lang, [(), (A,), (A, C), (A, D)])
        singles = {(i,): A for i in (0, 1, 2, 3)}
        c1 = coloring((0, 1, 2), {**{k: v for k, v in singles.items() if k[0] != 3},
                                  (0, 1): D, (0, 2): C, (1, 2): D})
        c2 = coloring((0, 1, 3), {**{k: v for k, v in singles.items() if k[0] != 2},
                                  (0, 1): D, (0, 3): C, (1, 3): D})
        sys = SpecialSystem((0, 1), 2, 3, c1, c2)
        validate_system(sys, ds)
        with pytest.raises(HypothesesError):
            dap_from_ap(sys, ds)

    def test_rejects_languages_without_spare_symbols(self, t1):
        with pytest.raises(HypothesesError):
            dap_from_ap(b_system(), t1)


class TestValidatedOnce:
    """A system validated for a family object is not validated again for it."""

    def walks(self, monkeypatch):
        """The names of later ``validate_structure`` and ``_number`` calls, in order."""
        calls = []
        for name in ("validate_structure", "_number"):
            real = getattr(amalgamation, name)
            monkeypatch.setattr(
                amalgamation, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
            )
        return calls

    @pytest.mark.parametrize("solve", [dap_search, ap_search, dap_from_ap])
    def test_a_second_call_walks_nothing(self, monkeypatch, solve):
        ds, sys = case1_system()
        first = solve(sys, ds)
        calls = self.walks(monkeypatch)
        assert solve(sys, ds) == first
        assert calls == []

    def test_an_equal_family_validates_again(self, monkeypatch):
        ds, sys = case1_system()
        first = dap_search(sys, ds)
        calls = self.walks(monkeypatch)
        equal = DiagramSet(ds.language, ds.members)
        assert equal == ds and equal is not ds
        assert dap_search(sys, equal) == first
        assert calls == ["validate_structure", "validate_structure", "_number", "_number"]

    @pytest.mark.parametrize("solve", [dap_search, ap_search, dap_from_ap])
    def test_an_invalid_system_raises_on_every_call(self, solve):
        # Every pair of B-colored points is monochromatic with a diagram t1 refuses.
        leaving = SpecialSystem(
            (0,), 1, 2, coloring((0, 1), {(0,): B, (1,): B}), coloring((0, 2), {(0,): B, (2,): A})
        )
        t1 = t1_set()
        for sys, text in (
            (leaving, "first coloring leaves the class at subset (0, 1)"),
            (replace(leaving, a2=1), "the two fresh points must differ"),
        ):
            for _ in range(3):
                with pytest.raises(InvalidSystemError) as raised:
                    solve(sys, t1)
                assert str(raised.value) == text


class TestAmalgamateInfinite:
    def test_distinct_colors_need_no_diagram(self, t1):
        c1 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
        c2 = coloring((0, 2), {(0,): A, (2,): B, (0, 2): C})
        sys = SpecialSystem((0,), 1, 2, c1, c2)
        result = amalgamate_infinite(sys, t1)
        assert result.status == "witness" and result.method == "infinite-diagram"
        assert in_class(result.witness, t1).ok

    def test_matching_colors_follow_the_diagram(self, t1):
        full = full_tree_set(t1.language, 3)
        c1 = coloring((0, 1), {(0,): B, (1,): A, (0, 1): D})
        c2 = coloring((0, 2), {(0,): B, (2,): A, (0, 2): D})
        sys = SpecialSystem((0,), 1, 2, c1, c2)
        d = InfiniteDiagram.from_symbols([A, D, E])
        result = amalgamate_infinite(sys, full, d)
        assert result.witness.colors[(1, 2)] == D
        assert result.witness.colors[(0, 1, 2)] == E
        assert in_class(result.witness, full).ok

    def test_empty_base_takes_pair_from_diagram(self, t1):
        c1 = coloring((0,), {(0,): A})
        c2 = coloring((1,), {(1,): A})
        sys = SpecialSystem((), 0, 1, c1, c2)
        d = InfiniteDiagram.from_symbols([A, C, E])
        result = amalgamate_infinite(sys, t1, d)
        assert result.witness.colors[(0, 1)] == C

    def test_matching_colors_without_diagram_fail(self, t1):
        c1 = coloring((0,), {(0,): A})
        c2 = coloring((1,), {(1,): A})
        with pytest.raises(ValueError):
            amalgamate_infinite(SpecialSystem((), 0, 1, c1, c2), t1)

    def test_wrong_first_entry_rejected(self, t1):
        c1 = coloring((0,), {(0,): A})
        c2 = coloring((1,), {(1,): A})
        d = InfiniteDiagram.from_symbols([B, C, E])
        with pytest.raises(ValueError):
            amalgamate_infinite(SpecialSystem((), 0, 1, c1, c2), t1, d)


class TestAmalgamateQuotient:
    def test_reference_instance(self, t1):
        c1 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
        c2 = coloring((0, 2), {(0,): A, (2,): A, (0, 2): C})
        sys = SpecialSystem((0,), 1, 2, c1, c2)
        cstar = ColoringStructure((0,), {(0,): RelSymbol(1, 0)})
        result = amalgamate_quotient(sys, t1, (A, C), cstar)
        assert result.status == "witness" and result.method == "quotient"
        assert result.witness.colors[(1, 2)] == C
        assert result.witness.colors[(0, 1, 2)] == E
        assert in_class(result.witness, t1).ok

    def test_empty_base(self, t1):
        c1 = coloring((0,), {(0,): A})
        c2 = coloring((1,), {(1,): A})
        sys = SpecialSystem((), 0, 1, c1, c2)
        result = amalgamate_quotient(sys, t1, (A, C), ColoringStructure((), {}))
        assert result.witness.colors[(0, 1)] == C

    def test_stem_must_start_at_common_color(self, t1):
        c1 = coloring((0,), {(0,): B})
        c2 = coloring((1,), {(1,): B})
        sys = SpecialSystem((), 0, 1, c1, c2)
        with pytest.raises(ValueError):
            amalgamate_quotient(sys, t1, (A, C), ColoringStructure((), {}))


class TestAmalgamateTriple:
    def test_two_point_extension(self, t1):
        full = full_tree_set(t1.language, 3)
        m1 = coloring((0,), {(0,): A})
        m2 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
        m3 = coloring((0, 2), {(0,): A, (2,): B, (0, 2): D})
        result = amalgamate_triple(m1, m2, m3, full)
        assert result.status == "witness"
        assert is_substructure(m2, result.witness)
        assert is_substructure(m3, result.witness)
        assert in_class(result.witness, full).ok

    def test_overlap_must_be_the_base(self, t1):
        m1 = coloring((0,), {(0,): A})
        m2 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
        with pytest.raises(InvalidSystemError):
            amalgamate_triple(m1, m2, m2, t1)

    def test_base_must_agree_with_both_outer_structures(self):
        # m3 colors the base point 0 with B where m1 and m2 color it with A, so
        # no amalgam can extend both m2 and m3.
        tree = FullTree(Language.of({1: 2, 2: 2, 3: 2}))
        m1 = coloring((0,), {(0,): A})
        m2 = coloring((0, 1), {(0,): A, (1,): A})
        m3 = coloring((0, 2), {(0,): B, (2,): A})
        for outer in ((m2, m3), (m3, m2)):
            with pytest.raises(InvalidSystemError, match="substructure of both outer"):
                amalgamate_triple(m1, *outer, tree)
        assert amalgamate_triple(restrict(m3, {0}), m3, coloring((0, 4), {(0,): B}), tree)


    def test_unsat_sums_nodes_over_steps_and_drops_the_refutation(self, t1):
        m1 = coloring((0,), {(0,): A})
        m2 = coloring((0, 1), {(0,): A, (1,): B})
        m3 = coloring((0, 2, 3), {(0,): A, (2,): A, (3,): B})
        first = amalgamate_triple(m1, m2, restrict(m3, {0, 2}), t1)
        assert (first.status, first.nodes) == ("witness", 2)
        # The second step refutes both candidate colors of the pair (1, 3) in two nodes.
        result = amalgamate_triple(m1, m2, m3, t1)
        assert (result.status, result.method, result.nodes) == ("unsat", "search", 4)
        assert result.refutation == () and result.witness is None

    def test_budget_exhaustion_sums_nodes_over_steps(self, t1):
        m1 = coloring((0,), {(0,): A})
        m2 = coloring((0, 1), {(0,): A, (1,): A})
        m3 = coloring((0, 2, 3), {})
        first = amalgamate_triple(m1, m2, restrict(m3, {0, 2}), t1, budget=2)
        assert (first.status, first.nodes) == ("witness", 2)
        # The second step runs out at its third node.
        result = amalgamate_triple(m1, m2, m3, t1, budget=2)
        assert (result.status, result.method, result.nodes) == ("budget-exhausted", "search", 5)
        assert result.refutation == () and result.witness is None


class TestEnumerateSpecialSystems:
    def test_second_extensions_match_relabeled_first_extensions(self):
        families = [random_family(seed) for seed in range(20)] + [t1_set()]
        exhausted = set()
        for ds in families:
            for lam in (0, 1, 2):
                for budget in (None, 2, 5):
                    got, got_out = drain(enumerate_special_systems(lam, ds, budget))
                    want, want_out = drain(reference_special_systems(lam, ds, budget))
                    assert got_out == want_out
                    assert [system_key(s) for s in got] == [system_key(s) for s in want]
                    exhausted.add(got_out)
        assert exhausted == {True, False}


def relabel(m: ColoringStructure, mapping: dict[int, int]) -> ColoringStructure:
    universe = tuple(sorted(mapping.get(p, p) for p in m.universe))
    colors = {}
    for subset, color in m.colors.items():
        colors[tuple(sorted(mapping.get(p, p) for p in subset))] = color
    return ColoringStructure(universe, colors)


def reference_special_systems(size, family, budget):
    """Special systems whose second extension is an extension at a1 relabeled to a2."""
    a1, a2 = size, size + 1
    for base in enumerate_bases(size, family, budget):
        extensions = list(enumerate_extensions(base, a1, family, budget))
        for i, c1 in enumerate(extensions):
            for c2 in extensions[i:]:
                yield SpecialSystem(tuple(range(size)), a1, a2, c1, relabel(c2, {a1: a2}))


def drain(systems):
    """The systems an enumeration yields, and whether it then ran out of budget."""
    out = []
    try:
        for sys in systems:
            out.append(sys)
    except BudgetExhausted:
        return out, True
    return out, False


def system_key(sys: SpecialSystem):
    """A system with the insertion order of both colorings."""
    return (sys.x, sys.a1, sys.a2, sys.c1.universe, sys.c2.universe,
            list(sys.c1.colors.items()), list(sys.c2.colors.items()))


class TestSpectra:
    def test_t1_fails_at_one_with_the_reference_certificate(self, t1):
        table = spectra_scan(t1, 2)
        assert table[1].dap == "no"
        cert = table[1].dap_certificate
        assert cert.c1.colors == {(0,): A, (1,): B, (0, 1): C}
        assert cert.c2.colors == {(0,): A, (2,): B, (0, 2): C}
        assert table[0].dap == "no"
        assert table[0].ap == "yes"

    def test_single_symbol_tree_always_amalgamates(self):
        tree = FullTree(Language.of({1: 1}, repeat=True))
        table = spectra_scan(tree, 2)
        assert all(entry.dap == "yes" and entry.ap == "yes" for entry in table.values())

    def test_sampled_mode_is_reproducible(self, t1):
        one = spectra_scan(t1, 1, mode="sampled", seed=42, trials=30)
        two = spectra_scan(t1, 1, mode="sampled", seed=42, trials=30)
        assert one == two

    def test_certificates_confirmed_by_brute_force(self, t1):
        table = spectra_scan(t1, 2)
        for lam in (0, 1, 2):
            cert = table[lam].dap_certificate
            if cert is not None:
                assert brute_system_unsat(cert, t1)

    def test_ap_dap_equivalence_on_a_splitting_tree(self):
        lang = Language.of({1: 2, 2: 2}, repeat=True)
        ds = DiagramSet.of(lang, [(), (A,), (B,), (A, C), (A, D), (B, C), (B, D)])
        table = spectra_scan(ds, 2)
        for lam in (1, 2):
            assert table[lam].dap == table[lam].ap
        assert table[2].dap == "no"

    def test_finite_rank_head_yields_small_refutation(self):
        """A rank-0 head with a one-element maximal model fails by size one."""
        ds = DiagramSet.of(T1_LANGUAGE, [(), (A,), (B,), (A, C)])
        table = spectra_scan(ds, 1)
        assert "no" in (table[0].dap, table[1].dap)
        first_no = min(lam for lam in (0, 1) if table[lam].dap == "no")
        assert first_no <= 1
        assert table[first_no].dap_certificate is not None


class TestSearchAgainstBruteForce:
    def test_verdicts_match_exhaustive_enumeration(self):
        """Both directions: the search says yes or no exactly when brute force does."""
        import random

        from conftest import brute_system_unsat, random_prefix_tree

        rng = random.Random(77)
        compared = 0
        while compared < 30:
            ds = random_prefix_tree(rng, max_nodes=25, max_arity=4)
            lam = rng.randint(0, 2)
            from chroma.amalgamation import sample_special_system

            sys = sample_special_system(lam, ds, rng)
            if sys is None:
                continue
            result = dap_search(sys, ds)
            assert result.status in ("witness", "unsat")
            assert (result.status == "unsat") == brute_system_unsat(sys, ds)
            compared += 1


class TestQuotientRecipe:
    def test_recipe_solves_every_matching_system(self):
        """Pick a high-rank stem, complete a quotient coloring, amalgamate through it.

        With every head rank at least two, each matching-color system over a
        one-point base admits a length-2 stem of positive rank, and any class
        coloring of the base in the quotient yields a witness.
        """
        import random

        from chroma.amalgamation import CompletionSearch
        from chroma.diagrams import quotient
        from chroma.rank import rank_table
        from conftest import tree_with_level1_ranks

        rng = random.Random(31)
        solved = 0
        for _ in range(8):
            ds = tree_with_level1_ranks([2, 3], rng)
            ranks = rank_table(ds)
            for sys in enumerate_special_systems(1, ds):
                common = sys.c1.colors[(sys.a1,)]
                if sys.c2.colors[(sys.a2,)] != common:
                    continue
                candidates = sorted(u for u in ds.level(2) if u[0] == common)
                stem = max(candidates, key=lambda u: ranks[u])
                assert ranks[stem] >= 1
                _, quotient_set = quotient(ds, stem)
                completion = CompletionSearch(
                    sys.x, {}, quotient_set.language, quotient_set
                ).first_solution()
                assert completion is not None
                cstar = ColoringStructure(sys.x, completion)
                result = amalgamate_quotient(sys, ds, stem, cstar)
                assert result.status == "witness"
                assert witness_extends(result, sys)
                assert in_class(result.witness, ds).ok
                solved += 1
        assert solved > 20


class TestGuaranteedAmalgamation:
    def test_high_head_ranks_force_small_base_success(self):
        """Heads of rank at least two amalgamate every one-point base system."""
        lang = Language.of({1: 2, 2: 2}, repeat=True)
        members = {(), (A,), (B,)}
        for head in ((A,), (B,)):
            chain = head
            for arity in range(2, 4):
                members.add(chain + (RelSymbol(arity, 1),))
                chain = chain + (RelSymbol(arity, 0),)
                members.add(chain)
        ds = DiagramSet.of(lang, members)
        from chroma.rank import rank_table

        table = rank_table(ds)
        assert min(table[w] for w in ds.level(1)) >= 2
        for lam in (0, 1):
            for sys in enumerate_special_systems(lam, ds):
                assert dap_search(sys, ds).status == "witness"
