"""Diagram sets: validation, levels, pruning, quotients, serialization."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.diagrams import (
    DiagramSet,
    FullTree,
    Language,
    RelSymbol,
    diagram_from_json,
    diagram_key,
    diagram_set_from_json,
    diagram_set_to_json,
    full_tree_set,
    prune,
    quotient,
    validate,
)
from conftest import A, B, C, D, E, T1_LANGUAGE, random_prefix_tree


def comparable(w, u):
    k = min(len(w), len(u))
    return w[:k] == u[:k]


class TestValidate:
    def test_chain_ok(self):
        ds = DiagramSet.of(T1_LANGUAGE, [(), (A,), (A, C)])
        assert validate(ds).ok

    def test_broken_prefix(self):
        ds = DiagramSet.of(T1_LANGUAGE, [(), (A, C)])
        report = validate(ds)
        assert not report.ok
        assert report.diagram == (A, C)
        assert "prefix" in report.reason

    def test_arity_mismatch(self):
        ds = DiagramSet.of(T1_LANGUAGE, [(), (C,)])
        report = validate(ds)
        assert not report.ok
        assert report.diagram == (C,)
        assert "position 1" in report.reason

    def test_missing_root(self):
        ds = DiagramSet.of(T1_LANGUAGE, [(A,)])
        assert not validate(ds).ok

    def test_symbol_out_of_language(self):
        ds = DiagramSet.of(T1_LANGUAGE, [(), (RelSymbol(1, 7),)])
        assert not validate(ds).ok


class TestLevel:
    def test_level_one(self, t1):
        assert t1.level(1) == {(A,), (B,)}

    def test_level_three(self, t1):
        assert t1.level(3) == {(A, C, E)}

    def test_level_zero_is_root(self, t1):
        assert t1.level(0) == {()}


class TestPrune:
    def test_keep_single_head(self, t1):
        kept = prune(t1, [(A,)])
        assert kept.members == frozenset({(), (A,), (A, C), (A, D), (A, C, E)})

    def test_keep_root_is_identity(self, t1):
        assert prune(t1, [()]).members == t1.members

    def test_keep_leaf_keeps_chain(self, t1):
        kept = prune(t1, [(A, C, E)])
        assert kept.members == frozenset({(), (A,), (A, C), (A, C, E)})

    def test_rejects_foreign_diagrams(self, t1):
        with pytest.raises(ValueError):
            prune(t1, [(B, C)])

    def test_matches_comparability_filter_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(25):
            ds = random_prefix_tree(rng, max_nodes=40)
            keep = rng.sample(sorted(ds.members), k=min(2, len(ds.members)))
            kept = prune(ds, keep)
            expected = {w for w in ds.members if any(comparable(w, u) for u in keep)}
            assert kept.members == frozenset(expected)
            assert validate(kept).ok

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(10):
            ds = random_prefix_tree(rng, max_nodes=30)
            keep = rng.sample(sorted(ds.members), k=1)
            once = prune(ds, keep)
            assert prune(once, keep).members == once.members

    def test_extensions_survive_their_prefix(self):
        rng = random.Random(9)
        for _ in range(10):
            ds = random_prefix_tree(rng, max_nodes=30)
            for w in ds.members:
                for prefix_len in range(len(w) + 1):
                    u = w[:prefix_len]
                    assert w in prune(ds, [u]).members


class TestQuotient:
    def test_by_head(self, t1):
        lang, q = quotient(t1, (A,))
        assert lang.counts == ((1, 2), (2, 1))
        assert q.members == frozenset(
            {(), (RelSymbol(1, 0),), (RelSymbol(1, 1),), (RelSymbol(1, 0), RelSymbol(2, 0))}
        )
        assert validate(q).ok

    def test_by_pair(self, t1):
        _, q = quotient(t1, (A, C))
        assert q.members == frozenset({(), (RelSymbol(1, 0),)})

    def test_chain_with_no_proper_extension(self):
        ds = DiagramSet.of(T1_LANGUAGE, [(), (A,)])
        _, q = quotient(ds, (A,))
        assert q.members == frozenset({()})

    def test_rejects_nonmembers(self, t1):
        with pytest.raises(ValueError):
            quotient(t1, (B, C))

    def test_rejects_empty_stem(self, t1):
        with pytest.raises(ValueError):
            quotient(t1, ())

    def test_outputs_validate_on_random_trees(self):
        rng = random.Random(10)
        for _ in range(20):
            ds = random_prefix_tree(rng, max_nodes=40)
            for stem in sorted(ds.members):
                if stem:
                    _, q = quotient(ds, stem)
                    assert validate(q).ok


class TestLanguage:
    def test_untracked_arities_default_to_one_symbol(self):
        assert T1_LANGUAGE.count(4) == 1
        assert T1_LANGUAGE.count(9) == 1

    def test_repeat_extends_last_count(self):
        lang = Language.of({1: 2, 2: 3}, repeat=True)
        assert lang.count(5) == 3

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Language.of({1: 2, 3: 1})

    def test_count_reads_counts_by_position(self):
        """``count`` agrees with a lookup by arity in a dict of the counts."""

        def by_dict(lang, arity):
            table = dict(lang.counts)
            if arity < 1:
                return 0
            if arity in table:
                return table[arity]
            if lang.repeat and table:
                return table[max(table)]
            return 1

        rng = random.Random(47)
        langs = [Language.of({}), Language.of({}, repeat=True)]
        for _ in range(40):
            top = rng.randint(1, 8)
            counts = {a: rng.randint(1, 5) for a in range(1, top + 1)}
            langs += [Language.of(counts), Language.of(counts, repeat=True)]
        for lang in langs:
            for arity in range(-1, len(lang.counts) + 4):
                assert lang.count(arity) == by_dict(lang, arity), (lang, arity)

    def test_shift_drops_low_arities(self):
        assert T1_LANGUAGE.shift(1).counts == ((1, 2), (2, 1))
        assert T1_LANGUAGE.shift(3).counts == ()

    def test_size(self):
        assert T1_LANGUAGE.size().render() == "5"
        assert Language.of({1: 1}, repeat=True).size().render() == "kappa_(w*1)"


class TestFullTree:
    def test_allows_everything_disciplined(self):
        tree = FullTree(Language.of({1: 1}, repeat=True))
        assert tree.allows((RelSymbol(1, 0), RelSymbol(2, 0)))
        assert not tree.allows((RelSymbol(2, 0),))

    def test_truncation(self, t1):
        ds = full_tree_set(t1.language, 3)
        assert validate(ds).ok
        assert len(ds.level(1)) == 2
        assert len(ds.level(2)) == 4
        assert len(ds.level(3)) == 4
        assert (A, C, E) in ds.members


class TestJson:
    def test_round_trip(self, t1):
        data = diagram_set_to_json(t1)
        assert diagram_set_from_json(data).members == t1.members

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_on_random_trees(self, seed):
        ds = random_prefix_tree(random.Random(seed), max_nodes=25, max_arity=4)
        data = diagram_set_to_json(ds)
        back = diagram_set_from_json(data)
        assert back.members == ds.members
        assert back.language == ds.language
        assert diagram_set_to_json(back) == data

    def test_schema_shape(self, t1):
        data = diagram_set_to_json(t1)
        assert data["arities"] == {"1": 2, "2": 2, "3": 1}
        assert data["members"][0] == []
        assert data["members"][1] == [[1, 0]]

    def test_members_sorted_lexicographically(self, t1):
        data = diagram_set_to_json(t1)
        assert data["members"] == sorted(data["members"])
        text = json.dumps(data, sort_keys=True)
        assert json.dumps(diagram_set_to_json(diagram_set_from_json(data)), sort_keys=True) == text

    def test_diagram_key(self):
        assert diagram_key((A, C)) == "[[1,0],[2,0]]"

    @pytest.mark.parametrize("data", [5, [5], [[1]], [[1, 0, 2]], [None], [["a", 0]]])
    def test_malformed_diagrams_raise_value_error(self, data):
        with pytest.raises(ValueError):
            diagram_from_json(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"members": [[]]},
            {"arities": [[1, 1]], "members": [[]]},
            {"arities": {"1": 1}, "members": 5},
            {"arities": {"1": 1}, "members": [[], [[1]]]},
            [{"1": 1}, [[]]],
        ],
    )
    def test_malformed_diagram_sets_raise_value_error(self, data):
        with pytest.raises(ValueError):
            diagram_set_from_json(data)
