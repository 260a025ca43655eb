"""Differential gates for the one-pass diagram-tree kernels.

``rank_table`` pushes ranks up with one lookup per member, ``prune`` keeps
the extensions of each kept diagram by a slice compare and its prefixes by
intersection, ``quotient`` shifts each distinct symbol once, ``truncate``
builds each symbol once per reachable level, and ``_read_members`` reuses
the previous member's diagram for a shared prefix. Each is compared here
with the plain form it replaced, kept in this file: a recursive rank, the
``comparable`` predicate, the per-symbol shift, the depth-first builder
and the per-pair reader.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.diagrams import (
    DiagramSet,
    Language,
    RelSymbol,
    ValidationReport,
    _read_members,
    diagram_from_json,
    diagram_set_from_json,
    diagram_to_json,
    language_to_json,
    prune,
    quotient,
    validate,
)
from chroma.ordinal import Ordinal, parse_ordinal
from chroma.rank import rank_table
from chroma.walpha import WAlphaParams, truncate, usable_indices


# -- references ---------------------------------------------------------------

def reference_ranks(ds: DiagramSet) -> dict:
    """The rank of every member, recursively over its member children, in member order."""
    children: dict = {w: [] for w in ds.members}
    for w in ds.members:
        if w and w[:-1] in children:
            children[w[:-1]].append(w)

    def rank(w) -> int:
        return 1 + max(map(rank, children[w])) if children[w] else 0

    return {w: rank(w) for w in ds.members}


def reference_prune(ds: DiagramSet, keep) -> DiagramSet:
    def comparable(w, u) -> bool:
        k = min(len(w), len(u))
        return w[:k] == u[:k]

    return DiagramSet(ds.language, frozenset(w for w in ds.members if any(comparable(w, u) for u in keep)))


def reference_quotient(ds: DiagramSet, stem) -> tuple:
    k = len(stem)
    language = ds.language.shift(k)
    suffixes = {
        tuple(RelSymbol(sym.arity - k, sym.id) for sym in w[k:])
        for w in ds.members
        if len(w) >= k and w[:k] == stem
    }
    return language, DiagramSet(language, frozenset(suffixes))


def reference_truncate(params, f, max_arity: int, max_gamma: int) -> DiagramSet:
    """The depth-first builder: one fresh symbol per member."""
    usable = usable_indices(params, f)
    counts = {1: max_gamma}
    if usable:
        for n in range(2, max_arity + 1):
            counts[n] = len(usable) * max_gamma
    members = {()}
    frontier = []
    for g in range(max_gamma):
        head = (RelSymbol(1, g),)
        members.add(head)
        frontier.append((head, len(usable)))
    while frontier:
        prefix, ceiling = frontier.pop()
        arity = len(prefix) + 1
        if arity > max_arity:
            continue
        for pos in range(ceiling):
            for g in range(max_gamma):
                child = prefix + (RelSymbol(arity, pos * max_gamma + g),)
                members.add(child)
                frontier.append((child, pos))
    return DiagramSet(Language.of(counts), frozenset(members))


def reference_read_members(raw) -> frozenset:
    """Every member read pair by pair, through the symbols read so far."""
    symbols: dict = {}
    members = []
    for m in raw:
        try:
            w = tuple([symbols[a, i] for a, i in m])
        except (KeyError, TypeError, ValueError):
            w = tuple([symbols.setdefault(sym, sym) for sym in diagram_from_json(m)])
        members.append(w)
    return frozenset(members)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


# -- random trees -------------------------------------------------------------

@st.composite
def trees(draw, prefix_closed: bool = True):
    """A random tree over a random language, some of them ``repeat`` languages grown past
    their tracked arities; with ``prefix_closed`` off, members are dropped and orphans added."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tracked = rng.randint(1, 4)
    language = Language.of({n: rng.randint(1, 3) for n in range(1, tracked + 1)}, draw(st.booleans()))
    depth, size = tracked + rng.randint(0, 3), draw(st.integers(1, 60))
    members, frontier = {()}, [()]
    while frontier and len(members) < size:
        w = frontier.pop(rng.randrange(len(frontier)))
        if len(w) < depth:
            symbols = language.symbols(len(w) + 1)
            for sym in rng.sample(symbols, rng.randint(0 if w else 1, len(symbols))):
                members.add(w + (sym,))
                frontier.append(w + (sym,))
    if not prefix_closed:
        grown = sorted(members)
        for w in grown:
            if rng.random() < 0.2:
                members.discard(w)
        for _ in range(rng.randint(0, 3)):
            m = rng.choice(grown)
            members.add(m + tuple(RelSymbol(len(m) + k, 0) for k in range(1, rng.randint(2, 3))))
    return DiagramSet.of(language, members)


# -- rank_table ---------------------------------------------------------------

class TestRankTable:
    @settings(max_examples=300, deadline=None)
    @given(ds=st.one_of(trees(), trees(prefix_closed=False)))
    def test_matches_the_recursive_rank_in_value_and_order(self, ds):
        table = rank_table(ds)
        reference = reference_ranks(ds)
        assert table == reference
        assert list(table) == list(reference)


# -- prune ----------------------------------------------------------------------

class TestPrune:
    @settings(max_examples=300, deadline=None)
    @given(ds=trees(), data=st.data())
    def test_matches_the_comparable_predicate(self, ds, data):
        members = sorted(ds.members)
        leaves = [w for w in members if not ds.children(w)]
        inner = [w for w in members if w and ds.children(w)]
        pools = [[()], leaves] + ([inner] if inner else [])
        count = data.draw(st.integers(1, 3))
        keep = [data.draw(st.sampled_from(data.draw(st.sampled_from(pools)))) for _ in range(count)]
        assert prune(ds, keep) == reference_prune(ds, keep)

    def test_the_root_keeps_everything_and_a_leaf_its_branch(self, t1):
        assert prune(t1, [()]) == t1
        leaf = max(t1.members, key=len)
        assert prune(t1, [leaf]).members == {leaf[:k] for k in range(len(leaf) + 1)}


# -- quotient -------------------------------------------------------------------

class TestQuotient:
    @settings(max_examples=300, deadline=None)
    @given(ds=trees(), data=st.data())
    def test_matches_the_per_symbol_shift(self, ds, data):
        stems = [w for w in ds.members if w]
        if not stems:
            return
        stem = data.draw(st.sampled_from(sorted(stems)))
        language, result = quotient(ds, stem)
        assert (language, result) == reference_quotient(ds, stem)
        symbols = [sym for w in result.members for sym in w]
        assert len({id(sym) for sym in symbols}) == len(set(symbols))


# -- truncate -------------------------------------------------------------------

ORDINALS = [parse_ordinal(text) for text in ("0", "1", "2", "3", "5", "w*1", "w*1+1", "w*2", "w^2*1")]


class TestTruncate:
    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.sampled_from(ORDINALS[1:]),
        f=st.lists(st.sampled_from(ORDINALS), min_size=1, max_size=5),
        max_arity=st.integers(1, 6),
        max_gamma=st.integers(1, 3),
    )
    def test_matches_the_depth_first_builder(self, alpha, f, max_arity, max_gamma):
        params = WAlphaParams(alpha)
        f = [x for x in f if x <= alpha] or [Ordinal.from_int(0)]
        got = truncate(params, f, max_arity, max_gamma)
        assert got == reference_truncate(params, f, max_arity, max_gamma)

    def test_an_arity_cap_past_the_reachable_levels_adds_no_member(self):
        params = WAlphaParams(Ordinal.from_int(3))
        small = truncate(params, [0, 1, 2], 4, 2)
        assert truncate(params, [0, 1, 2], 4000, 2).members == small.members


# -- reading members ----------------------------------------------------------

def family(ds: DiagramSet, members) -> dict:
    return {**language_to_json(ds.language), "members": [diagram_to_json(w) for w in members]}


class TestReadMembers:
    @settings(max_examples=300, deadline=None)
    @given(ds=trees(), seed=st.integers(0, 2**32 - 1))
    def test_every_order_reads_the_same_set_with_one_symbol_per_pair(self, ds, seed):
        canonical = sorted(ds.members)
        shuffled = list(canonical)
        random.Random(seed).shuffle(shuffled)
        for order in (canonical, shuffled, canonical[::-1]):
            raw = family(ds, order)["members"]
            read = _read_members(raw)
            assert read == reference_read_members(raw) == ds.members
            symbols = [sym for w in read for sym in w]
            assert len({id(sym) for sym in symbols}) == len(set(symbols))

    @settings(max_examples=300, deadline=None)
    @given(ds=trees(), data=st.data())
    def test_a_canonical_list_with_one_odd_member_reads_as_before(self, ds, data):
        raw = family(ds, sorted(ds.members))["members"]
        odd = data.draw(st.one_of(
            st.sampled_from([5, None, "12", "", {}, {"a": 1}, [[1, 0, 0]], [[1.0, True]], [[True, 0]]]),
            st.builds(lambda m, pair: m + [pair], st.sampled_from(raw),
                      st.sampled_from([[2, 0, 0], "20", [2], [2.5, 0], [1.0, 0], [True, False], []])),
        ))
        raw.insert(data.draw(st.integers(0, len(raw))), odd)
        doc = {**language_to_json(ds.language), "members": raw}
        assert outcome(diagram_set_from_json, doc) == outcome(
            lambda d: DiagramSet(ds.language, reference_read_members(d["members"])), doc
        )

    @pytest.mark.parametrize(
        "member, error",
        [
            (5, "a diagram is a list of [arity, id] pairs (diagram 5 is not a list)"),
            ([[1, 0], [2, 0, 0]], "a diagram is a list of [arity, id] pairs (pair [2, 0, 0] has length 3, not 2)"),
            ([[1, 0], "20"], "a diagram is a list of [arity, id] pairs (pair '20' is not a list)"),
        ],
        ids=["not-a-list", "three-item-pair", "string-pair"],
    )
    def test_malformed_members_keep_their_errors(self, member, error):
        members = [[], [[1, 0]], [[1, 0], [2, 0]], member]
        data = {"arities": {"1": 1, "2": 2}, "members": members}
        assert outcome(diagram_set_from_json, data) == (ValueError, error)

    def test_numbers_that_int_maps_alike_read_as_the_same_symbol(self):
        ds = diagram_set_from_json({
            "arities": {"1": 1, "2": 2},
            "members": [[], [[1, 0]], [[1, 0], [2, 0]], [[1.0, 0], [2, True]], [[True, False], [2.0, 1.0]]],
        })
        a, b, c = RelSymbol(1, 0), RelSymbol(2, 0), RelSymbol(2, 1)
        assert ds.members == {(), (a,), (a, b), (a, c)}
        symbols = [sym for w in ds.members for sym in w]
        assert all(type(arity) is int and type(id_) is int for arity, id_ in symbols)
        assert len({id(sym) for sym in symbols}) == 3

    def test_a_missing_prefix_gets_the_same_report(self):
        ds = diagram_set_from_json({
            "arities": {"1": 1, "2": 1, "3": 1},
            "members": [[], [[1, 0]], [[1, 0], [2, 0], [3, 0]]],
        })
        orphan = (RelSymbol(1, 0), RelSymbol(2, 0), RelSymbol(3, 0))
        assert validate(ds) == ValidationReport(False, orphan, "missing prefix")
