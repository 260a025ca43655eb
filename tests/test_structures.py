"""Coloring structures: monochromaticity, membership, builders, extension."""

import json
import random
import tracemalloc
from itertools import combinations

import pytest

from chroma.amalgamation import CompletionSearch
from chroma.diagrams import DiagramSet, Language, RelSymbol
from chroma.rank import BranchFamily, InfiniteDiagram
from chroma.structures import (
    ColoringStructure,
    _one_smaller,
    canonical_subsets,
    diagram_of,
    extend_triple,
    in_class,
    is_monochromatic,
    is_substructure,
    monochromatic_model,
    monochromatic_table,
    restrict,
    structure_from_json,
    structure_to_json,
    subset_key,
    validate_structure,
)
from conftest import A, B, C, D, E, T1_LANGUAGE, t1_set


def random_structure(rng, size, language):
    universe = tuple(range(size))
    colors = {}
    for n in range(1, size + 1):
        for subset in combinations(universe, n):
            colors[subset] = rng.choice(language.symbols(n))
    return ColoringStructure(universe, colors)


class TestCanonicalOrder:
    @pytest.mark.parametrize("n", range(7))
    def test_subsets_by_size_then_lexicographically(self, n):
        points = tuple(3 + 2 * i for i in range(n))
        every = [tuple(p for j, p in enumerate(points) if mask >> j & 1) for mask in range(1 << n)]
        for start in (0, 1, 2):
            expected = [s for k in range(start, n + 1) for s in combinations(points, k)]
            assert expected == sorted((s for s in every if len(s) >= start), key=lambda s: (len(s), s))
            assert list(canonical_subsets(points, start)) == expected

    @pytest.mark.parametrize("n", range(7))
    def test_lattice_numbers_the_one_smaller_subsets(self, n):
        order = [s for k in range(n + 1) for s in combinations(range(n), k)]
        lattice = _one_smaller(n)
        assert len(lattice) == len(order) == 1 << n
        for i, subset in enumerate(order):
            smaller = combinations(subset, len(subset) - 1) if subset else ()
            assert lattice[i] == tuple(order.index(b) for b in smaller)


class TestMonochromatic:
    def test_singletons_always(self):
        m = monochromatic_model((A, C, E), 3)
        assert is_monochromatic(m, [0])

    def test_distinct_singleton_colors_break_it(self):
        m = ColoringStructure((0, 1), {(0,): A, (1,): B, (0, 1): C})
        assert not is_monochromatic(m, [0, 1])

    def test_built_model_is_fully_monochromatic(self):
        m = monochromatic_model((A, C, E), 3)
        for size in range(1, 4):
            for subset in combinations(m.universe, size):
                assert is_monochromatic(m, subset)

    def test_rejects_empty(self):
        m = monochromatic_model((A,), 1)
        with pytest.raises(ValueError):
            is_monochromatic(m, [])

    def test_table_matches_direct_definition(self):
        rng = random.Random(21)
        for _ in range(20):
            m = random_structure(rng, rng.randint(1, 5), T1_LANGUAGE)
            table = monochromatic_table(m)
            for subset in m.subsets():
                if is_monochromatic(m, subset):
                    assert table[subset] == diagram_of(m, subset)
                else:
                    assert table[subset] is None


class TestDiagramOf:
    def test_full_universe(self):
        m = monochromatic_model((A, C, E), 3)
        assert diagram_of(m, m.universe) == (A, C, E)

    def test_singleton(self):
        m = ColoringStructure((0,), {(0,): B})
        assert diagram_of(m, [0]) == (B,)

    def test_pair(self):
        m = ColoringStructure((0, 1), {(0,): A, (1,): A, (0, 1): D})
        assert diagram_of(m, [0, 1]) == (A, D)

    def test_rejects_nonmonochromatic(self):
        m = ColoringStructure((0, 1), {(0,): A, (1,): B, (0, 1): C})
        with pytest.raises(ValueError):
            diagram_of(m, [0, 1])

    def test_every_subset_of_a_monochromatic_model_restricts_its_diagram(self):
        diagram = (A, C, E, RelSymbol(4, 0))
        m = monochromatic_model(diagram, 4)
        for size in range(1, 5):
            for subset in combinations(m.universe, size):
                assert diagram_of(m, subset) == diagram[:size]


class TestInClass:
    def test_monochromatic_model_in_class(self, t1):
        assert in_class(monochromatic_model((A, C, E), 3), t1).ok

    def test_removing_the_top_breaks_it(self, t1):
        smaller = DiagramSet.of(t1.language, t1.members - {(A, C, E)})
        report = in_class(monochromatic_model((A, C, E), 3), smaller)
        assert not report.ok
        assert report.violating_subset == (0, 1, 2)

    def test_nonmonochromatic_pair_unconstrained(self, t1):
        m = ColoringStructure((0, 1), {(0,): A, (1,): B, (0, 1): C})
        assert in_class(m, t1).ok

    def test_minimal_violation_reported(self, t1):
        report = in_class(monochromatic_model((B, C), 2), t1)
        assert not report.ok
        assert report.violating_subset == (0, 1)
        assert report.diagram == (B, C)

    def test_matches_first_principles_check_on_random_structures(self):
        from conftest import brute_in_class, random_prefix_tree

        rng = random.Random(24)
        agreements = 0
        for _ in range(40):
            ds = random_prefix_tree(rng, max_nodes=25, max_arity=4)
            m = random_structure(rng, rng.randint(1, 4), ds.language)
            expected = brute_in_class(m.universe, m.colors, ds.members)
            assert in_class(m, ds).ok == expected
            agreements += 1
        assert agreements == 40

    def test_substructures_stay_in_class(self, t1):
        rng = random.Random(22)
        members = 0
        for _ in range(60):
            m = random_structure(rng, rng.randint(1, 4), T1_LANGUAGE)
            if not in_class(m, t1).ok:
                continue
            members += 1
            for size in range(1, m.size() + 1):
                for subset in combinations(m.universe, size):
                    assert in_class(restrict(m, subset), t1).ok
        assert members > 5


class TestMonochromaticModel:
    def test_explicit_colors(self):
        m = monochromatic_model((A, C, E), 3)
        assert m.colors[(0, 1)] == C and m.colors[(0, 1, 2)] == E
        validate_structure(m)

    def test_empty(self):
        m = monochromatic_model((A, C, E), 0)
        assert m.universe == () and m.colors == {}

    def test_builder_succeeds_membership_fails(self, t1):
        m = monochromatic_model((B, C), 2)
        validate_structure(m)
        assert not in_class(m, t1).ok

    def test_infinite_diagram_source(self):
        d = InfiniteDiagram(lambda n: RelSymbol(n, 0))
        m = monochromatic_model(d, 4)
        assert m.colors[(0, 1, 2, 3)] == RelSymbol(4, 0)

    def test_too_short_diagram(self):
        with pytest.raises(ValueError):
            monochromatic_model((A,), 2)


class TestRestrictAndSubstructure:
    def test_restriction_is_substructure(self):
        m = monochromatic_model((A, C, E), 3)
        sub = restrict(m, [0, 2])
        assert is_substructure(sub, m)
        assert not is_substructure(m, sub)

    def test_color_disagreement_detected(self):
        m1 = ColoringStructure((0,), {(0,): A})
        m2 = ColoringStructure((0, 1), {(0,): B, (1,): A, (0, 1): C})
        assert not is_substructure(m1, m2)


class TestExtendTriple:
    def test_single_point_growth(self, t1):
        base = ColoringStructure((0,), {(0,): A})
        d = InfiniteDiagram.from_symbols([A, C, E])
        ext = extend_triple(base, base, base, [5], d, t1)
        for n in (ext.n1, ext.n2, ext.n3):
            assert n.universe == (0, 5)
            assert n.colors[(0, 5)] == C
            assert in_class(n, t1).ok
        assert is_substructure(ext.n1, ext.n2)

    def test_empty_fresh_set_is_identity(self, t1):
        base = ColoringStructure((0,), {(0,): A})
        d = InfiniteDiagram.from_symbols([A, C, E])
        ext = extend_triple(base, base, base, [], d, t1)
        assert ext.n1 == base and ext.n2 == base and ext.n3 == base

    def test_rejects_overlapping_fresh_points(self, t1):
        base = ColoringStructure((0,), {(0,): A})
        d = InfiniteDiagram.from_symbols([A, C, E])
        with pytest.raises(ValueError):
            extend_triple(base, base, base, [0], d, t1)

    def test_rejects_inconsistent_diagram(self, t1):
        base = ColoringStructure((0,), {(0,): A})
        d = InfiniteDiagram.from_symbols([B, C, E])
        with pytest.raises(ValueError):
            extend_triple(base, base, base, [5], d, t1)

    def test_every_model_extends_when_a_branch_never_ends(self):
        """Over a class with an unbounded branch, extension always succeeds."""
        from itertools import islice

        d = InfiniteDiagram(lambda n: RelSymbol(n, n % 2))
        family = BranchFamily(d)
        language = Language.of({1: 2, 2: 2, 3: 2, 4: 2, 5: 2}, repeat=True)

        def members_of_size(size, cap=None):
            search = CompletionSearch(tuple(range(size)), {}, language, family)
            produced = (
                ColoringStructure(tuple(range(size)), solution)
                for solution in search.solutions()
            )
            return list(islice(produced, cap) if cap else produced)

        rng = random.Random(23)
        for size in range(1, 5):
            models = members_of_size(size, cap=40 if size == 4 else None)
            assert models
            for m in models:
                for m2 in rng.sample(models, min(3, len(models))):
                    if not is_substructure(m, m2) and m2 is not m:
                        continue
                    ext = extend_triple(m, m2, m2, [50, 51], d, family)
                    assert in_class(ext.n2, family).ok
                    assert is_substructure(ext.n1, ext.n2)

    def test_nested_triple_keeps_old_colors(self, t1):
        m1 = ColoringStructure((0,), {(0,): A})
        m2 = ColoringStructure((0, 1), {(0,): A, (1,): B, (0, 1): D})
        m3 = ColoringStructure((0, 2), {(0,): A, (2,): B, (0, 2): C})
        d = InfiniteDiagram.from_symbols([A, C, E])
        full = DiagramSet.of(
            T1_LANGUAGE,
            t1_set().members | {(B,), (A, C), (A, D)},
        )
        ext = extend_triple(m1, m2, m3, [7], d, None)
        assert ext.n2.colors[(0, 1)] == D
        assert ext.n3.colors[(0, 2)] == C
        assert ext.n2.colors[(1, 7)] == C
        assert is_substructure(ext.n1, ext.n2) and is_substructure(ext.n1, ext.n3)


class TestJson:
    def test_round_trip(self):
        m = monochromatic_model((A, C, E), 3)
        data = structure_to_json(m)
        assert data["universe"] == [0, 1, 2]
        assert data["colors"]["[0,1]"] == [2, 0]
        assert structure_from_json(data) == m

    def test_rejects_partial_colorings(self):
        data = {"universe": [0, 1], "colors": {"[0]": [1, 0], "[1]": [1, 0]}}
        with pytest.raises(ValueError):
            structure_from_json(data)

    def test_subset_key_is_compact_json(self):
        rng = random.Random(17)
        for n in range(6):
            for _ in range(20):
                s = tuple(sorted(rng.sample(range(-50, 5000), n)))
                assert subset_key(s) == json.dumps(list(s), separators=(",", ":"))

    def test_round_trip_on_random_structures(self):
        rng = random.Random(19)
        lang = Language.of({1: 3, 2: 3, 3: 2, 4: 2, 5: 2})
        for size in range(0, 6):
            m = random_structure(rng, size, lang)
            assert structure_from_json(json.loads(json.dumps(structure_to_json(m)))) == m

    def test_keys_are_read_as_any_json_int_list(self):
        data = {"universe": [1, 0], "colors": {"[1, 0]": [2, 0], " [0]": [1, 0], "[1]": [1, 1]}}
        m = structure_from_json(data)
        assert m.universe == (0, 1)
        assert m.colors == {(0,): A, (1,): B, (0, 1): C}

    def test_short_coloring_of_a_large_universe_fails_without_enumerating_it(self):
        data = {"universe": list(range(20)), "colors": {"[0]": [1, 0]}}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"subset \(1,\) is uncolored"):
                structure_from_json(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_whole_floats_and_true_are_read_as_ints(self):
        data = {"universe": [True, 0.0], "colors": {"[0]": [1, 0], "[true]": [1.0, True]}}
        data["colors"]["[0, 1.0]"] = [2.0, 0]
        m = structure_from_json(data)
        assert m.universe == (0, 1)
        assert m.colors == {(0,): A, (1,): B, (0, 1): C}

    def test_rejects_colors_outside_the_universe(self):
        data = {"universe": [0], "colors": {"[0]": [1, 0], "[1]": [1, 0]}}
        with pytest.raises(ValueError, match="outside the universe"):
            structure_from_json(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"universe": [0], "colors": {"[0]": 5}},
            {"universe": [0], "colors": {"[0]": [1]}},
            {"universe": [0], "colors": {"0": [1, 0]}},
            {"universe": [0], "colors": [["[0]", [1, 0]]]},
            {"colors": {"[0]": [1, 0]}},
            [[0], {"[0]": [1, 0]}],
            5,
            pytest.param(
                {"universe": [0, 1], "colors": {"[0]": [1, 0, 7], "[1]": [1, 0], "[0,1]": [2, 0, "x", {}]}},
                id="color-too-long",
            ),
            pytest.param({"universe": [0], "colors": {"[0]": "10"}}, id="color-a-string"),
            pytest.param(
                {"universe": [0, 1], "colors": {"[0]": ["1", "0"], "[1]": "10", "[0,1]": [2, 0]}},
                id="color-a-string-after-its-list",
            ),
            pytest.param({"universe": [0], "colors": {"[0]": {"1": 0, "0": 1}}}, id="color-an-object"),
            # int() reads each of these as a nearby integer; the reader refuses them.
            pytest.param({"universe": [0], "colors": {"[0]": [1.5, 0]}}, id="color-a-fraction"),
            pytest.param({"universe": [0], "colors": {"[0]": ["1", "0"]}}, id="color-strings"),
            pytest.param({"universe": [0.7], "colors": {"[0]": [1, 0]}}, id="point-a-fraction"),
            pytest.param(
                {"universe": [0, 1], "colors": {"[0]": [1, 0], "[1]": [1, 0], "[0.2, 1]": [2, 0]}},
                id="key-point-a-fraction",
            ),
        ],
    )
    def test_malformed_shapes_raise_value_error(self, data):
        with pytest.raises(ValueError):
            structure_from_json(data)
