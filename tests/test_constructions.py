"""Splitting builders, disjoint sums, and the growth sequence."""

from itertools import combinations

import pytest

from chroma.constructions import (
    BinaryStringUniverse,
    IntervalBlock,
    build_interval_splitting,
    build_k_splitting,
    build_limit_sum,
    build_pair_splitting,
    delta,
    delta_sequence,
    kappa,
    pattern_index,
    s_pattern,
)
from chroma.diagrams import DiagramSet, Language, RelSymbol, prune, quotient
from chroma.ordinal import (
    OMEGA,
    BethCardinal,
    FiniteCardinal,
    KappaCardinal,
    Ordinal,
    PowerSetCardinal,
)
from chroma.structures import (
    ColoringStructure,
    in_class,
    monochromatic_model,
    monochromatic_table,
    validate_structure,
)
from conftest import A, B, C, D, E

E1 = RelSymbol(3, 1)


class TestKappa:
    def test_finite_is_identity(self):
        assert kappa(3) == FiniteCardinal(3)

    def test_successor_above_omega_is_power_set(self):
        assert kappa(OMEGA + 1) == PowerSetCardinal(KappaCardinal(OMEGA))

    def test_from_omega_squared_on_its_beth(self):
        w2 = Ordinal.omega_power(2)
        assert kappa(w2) == BethCardinal(w2)
        assert kappa(w2 + 5) == BethCardinal(w2 + 5)

    def test_limit_below_omega_squared_is_atomic(self):
        lim = Ordinal.omega_power(1, 2)
        assert kappa(lim) == KappaCardinal(lim)

    def test_iterated_successors(self):
        expr = kappa(OMEGA + 2)
        assert expr == PowerSetCardinal(PowerSetCardinal(KappaCardinal(OMEGA)))


class TestDeltaMachinery:
    def test_single_pair(self):
        assert delta_sequence(("000", "001")) == (2,)

    def test_three_strings(self):
        assert delta_sequence(("000", "010", "100")) == (1, 0)

    def test_full_square(self):
        assert delta_sequence(("00", "01", "10", "11")) == (1, 0, 1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            delta_sequence(("00", "00"))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            delta_sequence(("01", "00"))

    def test_adjacent_deltas_never_equal(self):
        strings = BinaryStringUniverse(3).strings
        for xs in combinations(strings, 3):
            ds = delta_sequence(xs)
            assert all(a != b for a, b in zip(ds, ds[1:]))

    def test_sign_patterns(self):
        assert s_pattern(("000", "010", "100")) == "1"
        assert s_pattern(("100", "110", "111")) == "0"
        assert s_pattern(("1000", "1100", "1110", "1111")) == "00"

    def test_pattern_index_order(self):
        assert pattern_index("00") == 0
        assert pattern_index("11") == 1
        assert pattern_index("01") == 2
        assert pattern_index("10") == 3

    @pytest.mark.parametrize("length", range(1, 11))
    def test_pattern_index_is_the_sorted_enumeration_rank(self, length):
        patterns = sorted(format(i, f"0{length}b") for i in range(2**length))
        zeros, ones = "0" * length, "1" * length
        order = [zeros, ones] + [p for p in patterns if p not in (zeros, ones)]
        assert [pattern_index(p) for p in order] == list(range(len(order)))

    @pytest.mark.parametrize("pattern", ["", "2", "0b1", "1_0", " 10", "10 "])
    def test_pattern_index_rejects_non_binary_text(self, pattern):
        with pytest.raises(ValueError):
            pattern_index(pattern)

    @pytest.mark.parametrize("m", range(0, 6))
    def test_strings_are_every_string_in_lexicographic_order(self, m):
        strings = BinaryStringUniverse(m).strings
        assert strings == sorted(format(i, f"0{m}b") if m else "" for i in range(2**m))


class TestLimitSum:
    def test_two_components_stay_in_class(self, t1):
        left = monochromatic_model((A, C, E), 3)
        right = monochromatic_model((B,), 1)
        total = build_limit_sum([left, right])
        assert total.universe == (0, 1, 2, 3)
        validate_structure(total)
        assert in_class(total, t1).ok

    def test_single_component_is_itself(self):
        m = monochromatic_model((A, C, E), 3)
        assert build_limit_sum([m]).colors == m.colors

    def test_rejects_equal_root_colors(self):
        m = monochromatic_model((A, C, E), 3)
        with pytest.raises(ValueError):
            build_limit_sum([m, monochromatic_model((A,), 1)])

    def test_cross_sets_are_never_monochromatic(self, t1):
        left = monochromatic_model((A, C, E), 3)
        right = monochromatic_model((B,), 1)
        total = build_limit_sum([left, right])
        table = monochromatic_table(total)
        for subset, diagram in table.items():
            if any(p <= 2 for p in subset) and any(p == 3 for p in subset):
                assert diagram is None


class TestPairSplitting:
    def test_no_monochromatic_triple_m2(self):
        m = build_pair_splitting(2, (A,), [(A, C), (A, D)])
        table = monochromatic_table(m)
        for subset in combinations(m.universe, 3):
            assert table[subset] is None
        lang = Language.of({1: 1, 2: 2})
        w = DiagramSet.of(lang, [(), (A,), (A, C), (A, D)])
        assert in_class(m, prune(w, [(A,)])).ok

    def test_single_position(self):
        m = build_pair_splitting(1, (A,), [(A, C)])
        assert m.universe == (0, 1)
        assert m.colors[(0, 1)] == C

    def test_rejects_duplicate_diagrams(self):
        with pytest.raises(ValueError):
            build_pair_splitting(3, (A,), [(A, C), (A, D), (A, C)])

    def test_pairs_follow_first_difference(self):
        m = build_pair_splitting(2, (A,), [(A, C), (A, D)])
        strings = BinaryStringUniverse(2).strings
        for i, j in combinations(range(4), 2):
            expected = C if delta(strings[i], strings[j]) == 0 else D
            assert m.colors[(i, j)] == expected

    def test_random_instances_land_in_their_pruned_class(self):
        """Any m distinct pair extensions of a stem give a model of size 2^m."""
        import random

        rng = random.Random(47)
        for _ in range(10):
            m_len = rng.randint(1, 4)
            lang = Language.of({1: 2, 2: m_len + rng.randint(0, 2)})
            stem = (RelSymbol(1, rng.randint(0, 1)),)
            ids = rng.sample(range(lang.count(2)), m_len)
            pair_diagrams = [stem + (RelSymbol(2, i),) for i in ids]
            ds = DiagramSet.of(lang, [(), stem] + pair_diagrams)
            built = build_pair_splitting(m_len, stem, pair_diagrams)
            assert built.size() == 2 ** m_len
            assert in_class(built, prune(ds, [stem])).ok


def k_split_fixture(m: int):
    """A depth-4 allowed set and the two components the splitting consumes."""
    lang = Language.of({1: 2, 2: 2, 3: 2}, repeat=True)
    ds = DiagramSet.of(
        lang,
        [
            (), (A,), (A, C),
            (A, C, E), (A, C, E1),
            (A, C, E, RelSymbol(4, 0)), (A, C, E1, RelSymbol(4, 1)),
        ],
    )
    positions = tuple(range(m))
    comp0 = monochromatic_model(
        (RelSymbol(1, 0), RelSymbol(2, 0), RelSymbol(3, 0))[:m], m, positions
    )
    comp1 = monochromatic_model(
        (RelSymbol(1, 0), RelSymbol(2, 1), RelSymbol(3, 1))[:m], m, positions
    )
    return ds, comp0, comp1


class TestKSplitting:
    def test_small_square_structure(self):
        ds, comp0, comp1 = k_split_fixture(2)
        m = build_k_splitting(2, (A, C), [comp0, comp1])
        assert m.universe == (0, 1, 2, 3)
        assert m.colors[(0, 1)] == C
        assert m.colors[(0, 2, 3)] == E
        assert m.colors[(0, 1, 2)] == E1
        assert m.colors[(0, 1, 2, 3)] == RelSymbol(4, 0)

    def test_membership_in_pruned_class(self):
        for size in (2, 3):
            ds, comp0, comp1 = k_split_fixture(size)
            quotient_lang, quotient_set = quotient(ds, (A,))
            assert in_class(comp0, quotient_set).ok
            assert in_class(comp1, quotient_set).ok
            m = build_k_splitting(size, (A, C), [comp0, comp1])
            assert in_class(m, prune(ds, [(A, C)])).ok

    def test_monochromatic_large_sets_have_monochromatic_positions(self):
        """Big single-color sets push their difference positions onto one component."""
        ds, comp0, comp1 = k_split_fixture(3)
        m = build_k_splitting(3, (A, C), [comp0, comp1])
        table = monochromatic_table(m)
        strings = BinaryStringUniverse(3).strings
        comp_tables = [monochromatic_table(comp0), monochromatic_table(comp1)]
        found = 0
        for subset, diagram in table.items():
            if diagram is None or len(subset) <= 3:
                continue
            found += 1
            xs = [strings[i] for i in subset]
            seq = delta_sequence(xs)
            increasing = all(a < b for a, b in zip(seq, seq[1:]))
            assert increasing or all(a > b for a, b in zip(seq, seq[1:]))
            positions = tuple(sorted(set(seq)))
            assert comp_tables[0 if increasing else 1][positions] is not None
        assert found > 0

    def test_mixed_sign_sets_are_never_monochromatic(self):
        ds, comp0, comp1 = k_split_fixture(3)
        m = build_k_splitting(3, (A, C), [comp0, comp1])
        table = monochromatic_table(m)
        strings = BinaryStringUniverse(3).strings
        for subset in m.subsets():
            if len(subset) < 4:
                continue
            xs = [strings[i] for i in subset]
            seq = delta_sequence(xs)
            monotone = all(a < b for a, b in zip(seq, seq[1:])) or all(
                a > b for a, b in zip(seq, seq[1:])
            )
            if not monotone:
                assert table[subset] is None

    def test_rejects_wrong_component_count(self):
        ds, comp0, comp1 = k_split_fixture(2)
        with pytest.raises(ValueError):
            build_k_splitting(2, (A, C), [comp0])

    def test_single_position_is_fully_stem_colored(self):
        comp0 = ColoringStructure((0,), {(0,): RelSymbol(1, 0)})
        comp1 = ColoringStructure((0,), {(0,): RelSymbol(1, 1)})
        m = build_k_splitting(1, (A, C), [comp0, comp1])
        assert m.universe == (0, 1)
        assert m.colors == {(0,): A, (1,): A, (0, 1): C}

    def test_rejects_short_position_universe_at_dispatch(self):
        """Dispatch sets exist but the positions cannot host a canonical key."""
        comps = [
            monochromatic_model(
                (RelSymbol(1, 0), RelSymbol(2, i % 2))[:2], 2, (0, 1)
            )
            for i in range(4)
        ]
        with pytest.raises(ValueError):
            build_k_splitting(2, (A, C, E), comps)


def one_point_component(position: int, color_id: int) -> ColoringStructure:
    return ColoringStructure((position,), {(position,): RelSymbol(1, color_id)})


class TestIntervalSplitting:
    def test_two_unit_blocks_color_pairs_by_block(self):
        blocks = [
            IntervalBlock(1, (A, C), (A, C), (one_point_component(0, 0), one_point_component(0, 1))),
            IntervalBlock(1, (A, D), (A, D), (one_point_component(1, 0), one_point_component(1, 1))),
        ]
        m = build_interval_splitting(2, blocks)
        strings = BinaryStringUniverse(2).strings
        for i, j in combinations(range(4), 2):
            expected = C if delta(strings[i], strings[j]) == 0 else D
            assert m.colors[(i, j)] == expected
        lang = Language.of({1: 2, 2: 2}, repeat=True)
        ds = DiagramSet.of(lang, [(), (A,), (A, C), (A, D)])
        assert in_class(m, prune(ds, [(A,)])).ok

    def test_single_block_matches_plain_splitting_shape(self):
        positions = (0, 1)
        comp0 = monochromatic_model((RelSymbol(1, 0), RelSymbol(2, 0)), 2, positions)
        comp1 = monochromatic_model((RelSymbol(1, 1), RelSymbol(2, 1)), 2, positions)
        blocks = [IntervalBlock(2, (A, C), (A, C), (comp0, comp1))]
        m = build_interval_splitting(2, blocks)
        strings = BinaryStringUniverse(2).strings
        for i, j in combinations(range(4), 2):
            assert m.colors[(i, j)] == C
        for subset in combinations(range(4), 3):
            xs = [strings[i] for i in subset]
            expected_comp = comp0 if s_pattern(xs) == "0" else comp1
            key = tuple(sorted(set(delta_sequence(xs))))
            assert m.colors[subset] == RelSymbol(3, expected_comp.colors[key].id)

    def test_straddling_sets_are_never_monochromatic(self):
        blocks = [
            IntervalBlock(1, (A, C), (A, C), (one_point_component(0, 0), one_point_component(0, 1))),
            IntervalBlock(2, (A, D), (A, D), (
                monochromatic_model((RelSymbol(1, 0), RelSymbol(2, 0)), 2, (1, 2)),
                monochromatic_model((RelSymbol(1, 1), RelSymbol(2, 1)), 2, (1, 2)),
            )),
        ]
        m = build_interval_splitting(3, blocks)
        table = monochromatic_table(m)
        strings = BinaryStringUniverse(3).strings
        block_of = lambda d: 0 if d == 0 else 1
        for subset in m.subsets():
            if len(subset) < 2:
                continue
            xs = [strings[i] for i in subset]
            owners = {block_of(d) for d in delta_sequence(xs)}
            if len(owners) > 1:
                assert table[subset] is None

    def test_rejects_inconsistent_singleton_colors(self):
        blocks = [
            IntervalBlock(1, (A, C), (A, C), (one_point_component(0, 0), one_point_component(0, 1))),
            IntervalBlock(1, (B, D), (B, D), (one_point_component(1, 0), one_point_component(1, 1))),
        ]
        with pytest.raises(ValueError):
            build_interval_splitting(2, blocks)

    def test_rejects_bad_partition(self):
        blocks = [IntervalBlock(1, (A, C), (A, C), (one_point_component(0, 0), one_point_component(0, 1)))]
        with pytest.raises(ValueError):
            build_interval_splitting(2, blocks)


# -- differential checks against the string-based reference loops -------------

def reference_k_splitting(m, stem, components):
    """Reference k-splitting: strings, validated delta sequences and sign patterns per subset."""
    k = len(stem)
    strings = BinaryStringUniverse(m).strings
    universe = tuple(range(len(strings)))
    colors = {}
    for size in range(1, min(k, len(strings)) + 1):
        for subset in combinations(universe, size):
            colors[subset] = stem[size - 1]
    for size in range(k + 1, len(strings) + 1):
        for subset in combinations(universe, size):
            xs = [strings[i] for i in subset]
            ds = delta_sequence(xs)
            if size == k + 1:
                j = pattern_index(s_pattern(xs))
                if j <= 1:
                    key = tuple(sorted(set(ds)))
                else:
                    if m < k:
                        raise ValueError("need at least as many positions as the stem length")
                    key = tuple(range(k))
                colors[subset] = RelSymbol(size, components[j].colors[key].id)
            elif all(a < b for a, b in zip(ds, ds[1:])):
                colors[subset] = RelSymbol(size, components[0].colors[tuple(ds)].id)
            elif all(a > b for a, b in zip(ds, ds[1:])):
                colors[subset] = RelSymbol(size, components[1].colors[tuple(reversed(ds))].id)
            else:
                colors[subset] = RelSymbol(size, 0)
    return ColoringStructure(universe, colors)


def reference_pair_splitting(m, stem, pair_diagrams):
    """Reference pair splitting: pair colors from the first difference of the strings themselves."""
    if len(stem) != 1:
        raise ValueError("the stem must have length 1")
    if len(pair_diagrams) != m:
        raise ValueError(f"need exactly {m} pair diagrams")
    if len(set(pair_diagrams)) != len(pair_diagrams):
        raise ValueError("pair diagrams must be pairwise distinct")
    for w in pair_diagrams:
        if len(w) != 2 or w[0] != stem[0]:
            raise ValueError("each pair diagram must be a length-2 extension of the stem")
    strings = BinaryStringUniverse(m).strings
    universe = tuple(range(len(strings)))
    colors = {}
    for i in universe:
        colors[(i,)] = stem[0]
    for i, j in combinations(universe, 2):
        colors[(i, j)] = pair_diagrams[delta(strings[i], strings[j])][1]
    for size in range(3, len(strings) + 1):
        for subset in combinations(universe, size):
            colors[subset] = RelSymbol(size, 0)
    return ColoringStructure(universe, colors)


def reference_interval_splitting(m, blocks):
    """Reference interval splitting, computed the same string-based way."""
    spans, lo = [], 0
    for b in blocks:
        spans.append(range(lo, lo + b.length))
        lo += b.length
    strings = BinaryStringUniverse(m).strings
    universe = tuple(range(len(strings)))
    colors = {(i,): blocks[0].pair_diagram[0] for i in universe}
    for size in range(2, len(strings) + 1):
        for subset in combinations(universe, size):
            xs = [strings[i] for i in subset]
            ds = delta_sequence(xs)
            owners = {next(i for i, span in enumerate(spans) if d in span) for d in ds}
            if len(owners) > 1:
                colors[subset] = RelSymbol(size, 0)
                continue
            block = blocks[owners.pop()]
            inner = block.inner_size
            if size <= inner + 2:
                colors[subset] = block.stem[size - 1]
            elif size == inner + 3:
                j = pattern_index(s_pattern(xs))
                if j <= 1:
                    key = tuple(sorted(set(ds)))
                else:
                    key = block.components[j].universe[: inner + 2]
                    if len(key) < inner + 2:
                        raise ValueError("block too short for its stem's dispatch sets")
                colors[subset] = RelSymbol(size, block.components[j].colors[key].id)
            elif all(a < b for a, b in zip(ds, ds[1:])):
                colors[subset] = RelSymbol(size, block.components[0].colors[tuple(ds)].id)
            elif all(a > b for a, b in zip(ds, ds[1:])):
                colors[subset] = RelSymbol(
                    size, block.components[1].colors[tuple(reversed(ds))].id
                )
            else:
                colors[subset] = RelSymbol(size, 0)
    return ColoringStructure(universe, colors)


def random_component(rng, positions):
    colors = {
        s: RelSymbol(n, rng.randrange(3))
        for n in range(1, len(positions) + 1)
        for s in combinations(positions, n)
    }
    return ColoringStructure(positions, colors)


def random_stem(rng, head, pair_id, m_len):
    """A stem of length 2 or 3 over the given pair; length 2 at m=4 keeps the build valid."""
    stem = (head, RelSymbol(2, pair_id))
    if m_len >= 4 or rng.random() < 0.5:
        return stem
    return stem + (RelSymbol(3, rng.randrange(2)),)


def same_outcome(build, reference, *args):
    """Both raise ValueError, or both return the same structure."""
    try:
        expected = reference(*args)
    except ValueError:
        with pytest.raises(ValueError):
            build(*args)
        return
    assert build(*args) == expected


class TestSplittingEngine:
    """The rank-based engine equals the string-based reference loops."""

    @pytest.mark.parametrize("m_len", range(1, 7))
    def test_first_difference_from_ranks(self, m_len):
        strings = BinaryStringUniverse(m_len).strings
        for i, j in combinations(range(len(strings)), 2):
            assert m_len - (i ^ j).bit_length() == delta(strings[i], strings[j])

    def test_pair_splitting_matches_reference(self):
        import random

        rng = random.Random(307)
        for trial in range(30):
            m_len = trial if trial < 2 else rng.randint(0, 4)
            head = RelSymbol(1, rng.randrange(2))
            ids = rng.sample(range(6), m_len)
            pairs = [(head, RelSymbol(2, i)) for i in ids]
            same_outcome(build_pair_splitting, reference_pair_splitting, m_len, (head,), pairs)
        pairs = [(A, C), (A, D)]
        for stem, pair_diagrams in [
            ((A, C), pairs),
            ((A,), pairs[:1]),
            ((A,), [(A, C), (A, C)]),
            ((A,), [(A, C), (B, D)]),
            ((A,), [(A, C), (A,)]),
        ]:
            same_outcome(build_pair_splitting, reference_pair_splitting, 2, stem, pair_diagrams)

    def test_k_splitting_matches_reference(self):
        import random

        rng = random.Random(311)
        for trial in range(40):
            m_len = 4 if trial == 0 else rng.randint(1, 3)
            stem = random_stem(rng, RelSymbol(1, rng.randrange(2)), rng.randrange(3), m_len)
            comps = [random_component(rng, tuple(range(m_len))) for _ in range(2 ** (len(stem) - 1))]
            same_outcome(build_k_splitting, reference_k_splitting, m_len, stem, comps)

    def test_interval_splitting_matches_reference(self):
        import random

        rng = random.Random(313)
        for trial in range(40):
            m_len = 4 if trial == 0 else rng.randint(1, 3)
            lengths = []
            while sum(lengths) < m_len:
                lengths.append(rng.randint(1, m_len - sum(lengths)))
            head = RelSymbol(1, rng.randrange(2))
            blocks, lo = [], 0
            for length in lengths:
                stem = random_stem(rng, head, rng.randrange(3), m_len)
                span = tuple(range(lo, lo + length))
                comps = tuple(random_component(rng, span) for _ in range(2 ** (len(stem) - 1)))
                blocks.append(IntervalBlock(length, stem[:2], stem, comps))
                lo += length
            same_outcome(build_interval_splitting, reference_interval_splitting, m_len, blocks)

    def test_k_splitting_is_a_one_block_interval_splitting(self):
        ds, comp0, comp1 = k_split_fixture(3)
        stem = (A, C)
        block = IntervalBlock(3, stem, stem, (comp0, comp1))
        assert build_k_splitting(3, stem, [comp0, comp1]) == build_interval_splitting(3, [block])

    def test_zero_length_strings_keep_the_single_point(self):
        empty = ColoringStructure((), {})
        m = build_k_splitting(0, (A, C), [empty, empty])
        assert m == reference_k_splitting(0, (A, C), [empty, empty])
        assert m.colors == {(0,): A}
