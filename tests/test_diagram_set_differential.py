"""Differential gates for the diagram-set path.

``diagram_set_from_json`` reads members through a cache of symbols keyed by
their raw pairs, ``validate`` makes one unsorted pass that checks only each
member's last symbol and prefix, ``rank_table`` pushes ranks up from the
longest members, and ``diagram_key`` writes JSON text by hand. Each is
compared here with a plain reference: the per-member reader and the sorted,
position-by-position validation loop they replaced, a recursive rank and
``json.dumps``.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.diagrams import (
    EMPTY_DIAGRAM,
    DiagramSet,
    RelSymbol,
    ValidationReport,
    _diagram_keys,
    diagram_from_json,
    diagram_key,
    diagram_set_from_json,
    diagram_to_json,
    language_from_json,
    validate,
)
from chroma.rank import rank_table
from conftest import naive_rank, random_prefix_tree


def reference_int(value) -> int:
    """``int(value)`` for a whole number; a string or a float with a fraction is refused."""
    n = int(value)
    if isinstance(value, str) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"{value!r} is not an integer")
    return n


def reference_diagram_from_json(data) -> tuple:
    """One member read pair by pair; a pair that is not a JSON list is refused."""
    symbols = []
    try:
        if isinstance(data, (int, float)) or data is None:
            raise TypeError(f"diagram {data!r} is not a list")
        for pair in data:
            if not isinstance(pair, list):
                raise TypeError(f"pair {pair!r} is not a list")
            if len(pair) != 2:
                raise TypeError(f"pair {pair!r} has length {len(pair)}, not 2")
            a, i = pair
            symbols.append(RelSymbol(reference_int(a), reference_int(i)))
    except TypeError as e:
        raise ValueError(f"a diagram is a list of [arity, id] pairs ({e})") from None
    except OverflowError as e:
        raise ValueError(str(e)) from None
    return tuple(symbols)


def reference_diagram_set_from_json(data: dict) -> DiagramSet:
    """The per-member reader: one ``reference_diagram_from_json`` call per member."""
    try:
        language = language_from_json(data)
        members = frozenset(reference_diagram_from_json(m) for m in data["members"])
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(
            f"a diagram set is {{'arities': {{arity: count}}, 'members': [diagram, ...]}} ({e})"
        ) from None
    return DiagramSet(language, members)


def reference_validate(ds: DiagramSet) -> ValidationReport:
    """Every position of every member, in canonical order."""
    if EMPTY_DIAGRAM not in ds.members:
        return ValidationReport(False, None, "the empty diagram is missing")
    for m in ds.sorted_members:
        for pos, sym in enumerate(m, start=1):
            if sym.arity != pos:
                return ValidationReport(
                    False, m, f"arity mismatch at position {pos}: symbol has arity {sym.arity}"
                )
            if not ds.language.has_symbol(sym):
                return ValidationReport(
                    False, m, f"symbol {sym} not in the language at position {pos}"
                )
        if m and m[:-1] not in ds.members:
            return ValidationReport(False, m, "missing prefix")
    return ValidationReport(True)


def outcome(read, data):
    try:
        return read(data)
    except ValueError as e:
        return type(e), str(e)


# -- reader -----------------------------------------------------------------

NAN, INF = float("nan"), float("inf")
# Whole numbers, several of them alike, and scalars the readers refuse: ones
# int() refuses, and ones it reads but does not equal (1.5, "1"). Half are
# small ints, so that pairs repeat and meet their swapped twins.
GOOD = st.one_of(
    st.integers(0, 2),
    st.sampled_from([1.0, 2.0, 0.0, -0.0, True, False, 10**400]),
)
BAD = st.sampled_from([NAN, INF, -INF, "x", "", None, 1.5, -0.5, "1", "2"])
PAIR = st.tuples(GOOD, GOOD).map(list)
# Odd pairs include strings and objects whose two entries int() reads ("10",
# {"1": 1, "2": 0}); both readers refuse them as pairs that are not lists.
ODD_PAIR = st.one_of(
    st.tuples(GOOD, BAD).map(list),
    st.tuples(BAD, GOOD).map(list),
    st.lists(GOOD, min_size=3, max_size=3),
    st.lists(GOOD, min_size=1, max_size=1),
    st.just([]),
    st.tuples(st.lists(GOOD, max_size=2), GOOD).map(list),
    st.tuples(GOOD, st.dictionaries(st.text(max_size=1), GOOD, max_size=1)).map(list),
    st.dictionaries(st.sampled_from(["1", "2", "a"]), GOOD, min_size=2, max_size=2),
    st.sampled_from(["10", "ab", None, 5, 1.0]),
)
MEMBER = st.one_of(
    st.lists(PAIR, max_size=4),
    st.lists(st.one_of(PAIR, PAIR, PAIR, ODD_PAIR), max_size=4),
    st.sampled_from([None, 5, "12", {"a": 1}]),
)
MEMBERS = st.one_of(
    st.lists(st.one_of(MEMBER, st.lists(PAIR, max_size=3)), max_size=8),
    st.sampled_from([None, 5, "ab", {"1": 1}]),
)


class TestReader:
    @settings(max_examples=400, deadline=None)
    @given(members=MEMBERS)
    def test_matches_the_per_member_reader(self, members):
        data = {"arities": {"1": 2, "2": 2}, "members": members}
        got = outcome(diagram_set_from_json, data)
        assert got == outcome(reference_diagram_set_from_json, data)
        if isinstance(got, DiagramSet):
            symbols = [sym for w in got.members for sym in w]
            assert all(type(a) is int and type(i) is int for a, i in symbols)
            assert len({id(sym) for sym in symbols}) == len(set(symbols))

    def test_numbers_that_int_maps_alike_share_one_symbol(self):
        ds = diagram_set_from_json(
            {"arities": {"1": 2}, "members": [[], [[1, 1]], [[1.0, True]], [[True, 1.0]], [[True, 0]]]}
        )
        assert ds.members == {(), (RelSymbol(1, 1),), (RelSymbol(1, 0),)}
        ones = {id(w[0]) for w in ds.members if w and w[0].id == 1}
        assert len(ones) == 1

    def test_pairs_that_are_not_lists_are_refused(self):
        """``int`` reads the characters of "10" as 1 and 0; the readers refuse the string."""
        for member in (["10"], [[1, 0], "10"], [{"1": 0, "0": 1}]):
            data = {"arities": {"1": 2}, "members": [[], [[1, 0]], member]}
            got = outcome(diagram_set_from_json, data)
            assert got[0] is ValueError and "is not a list" in got[1]
            assert outcome(diagram_from_json, member) == got
            assert outcome(reference_diagram_set_from_json, data) == got

    def test_infinity_is_a_value_error(self):
        for pair in ([1, INF], [-INF, 0]):
            data = {"arities": {"1": 1}, "members": [[], [[1, 0]], [pair]]}
            assert outcome(diagram_set_from_json, data) == (
                ValueError,
                "cannot convert float infinity to integer",
            )


# -- validate ---------------------------------------------------------------

def arity_fault(rng, members, language):
    m = rng.choice([w for w in members if w])
    pos = rng.randrange(len(m))
    wrong = RelSymbol(m[pos].arity + rng.choice([-1, 1, 2]), m[pos].id)
    members.add(m[:pos] + (wrong,) + m[pos + 1:])


def language_fault(rng, members, language):
    m = rng.choice([w for w in members if w])
    pos = rng.randrange(len(m))
    arity = pos + 1
    outside = RelSymbol(arity, rng.choice([-1, language.count(arity), language.count(arity) + 3]))
    members.add(m[:pos] + (outside,) + m[pos + 1:])


def prefix_fault(rng, members, language):
    inner = [w for w in members if w and any(len(u) > len(w) and u[: len(w)] == w for u in members)]
    if inner and rng.random() < 0.5:
        members.discard(rng.choice(inner))
    else:
        m = rng.choice(sorted(members))
        arity = len(m) + 1
        orphan = m + (RelSymbol(arity, 0), RelSymbol(arity + 1, 0))
        members.add(orphan)


def empty_fault(rng, members, language):
    members.discard(EMPTY_DIAGRAM)


FAULTS = (arity_fault, language_fault, prefix_fault, empty_fault)


@st.composite
def faulty_sets(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ds = random_prefix_tree(rng, max_nodes=draw(st.integers(1, 40)), max_arity=draw(st.integers(1, 5)))
    members = set(ds.members)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=4)):
        if any(members):
            fault(rng, members, ds.language)
    return DiagramSet.of(ds.language, members)


class TestValidate:
    @settings(max_examples=400, deadline=None)
    @given(ds=faulty_sets())
    def test_matches_the_sorted_loop(self, ds):
        assert validate(ds) == reference_validate(ds)

    def test_reports_the_canonical_first_of_several_faults(self, t1):
        late = (RelSymbol(1, 1), RelSymbol(2, 9))  # out of the language
        early = (RelSymbol(1, 0), RelSymbol(3, 0))  # wrong arity, sorts first
        ds = DiagramSet.of(t1.language, t1.members | {late, early})
        report = validate(ds)
        assert report == reference_validate(ds)
        assert report.diagram == early

    def test_a_valid_set_is_never_sorted(self, t1):
        ds = DiagramSet.of(t1.language, t1.members)
        assert validate(ds)
        assert "sorted_members" not in ds.__dict__


# -- ranks ------------------------------------------------------------------

@st.composite
def loose_sets(draw):
    """Random trees with members dropped and orphans added, so not always prefix-closed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ds = random_prefix_tree(rng, max_nodes=draw(st.integers(1, 40)))
    members = set(ds.members)
    drop = draw(st.sampled_from([0.0, 0.1, 0.3]))
    for w in sorted(ds.members):
        if rng.random() < drop:
            members.discard(w)
    for _ in range(draw(st.integers(0, 3))):
        m = rng.choice(sorted(ds.members))
        members.add(m + tuple(RelSymbol(len(m) + k, 0) for k in range(1, rng.randint(2, 3))))
    return DiagramSet.of(ds.language, members)


class TestRankTable:
    @settings(max_examples=300, deadline=None)
    @given(ds=loose_sets())
    def test_matches_the_recursive_rank(self, ds):
        assert rank_table(ds) == {w: naive_rank(ds.members, w) for w in ds.members}


# -- keys -------------------------------------------------------------------

SYMBOLS = st.builds(RelSymbol, st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20))


class TestDiagramKey:
    @settings(max_examples=300, deadline=None)
    @given(w=st.lists(st.one_of(SYMBOLS, st.builds(RelSymbol, st.integers(0, 9), st.integers(0, 9))), max_size=6))
    def test_matches_json_dumps(self, w):
        w = tuple(w)
        assert diagram_key(w) == json.dumps(diagram_to_json(w), separators=(",", ":"))


def random_key_tree(rng: random.Random, prefix_closed: bool) -> set:
    """A random tree whose arities and ids run to several digits, or it less some members."""
    digits = (0, 1, 9, 10, 11, 99, 100, 12345)
    members = {()}
    for _ in range(rng.randint(0, 80)):
        w = rng.choice(sorted(members))
        arity = rng.choice((len(w) + 1, rng.choice(digits)))
        members.add(w + (RelSymbol(arity, rng.choice((rng.choice(digits), rng.randrange(10**6)))),))
    if not prefix_closed:
        members -= set(rng.sample(sorted(members), len(members) // 3))
    return members


class TestDiagramKeys:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), prefix_closed=st.booleans())
    def test_matches_diagram_key(self, seed, prefix_closed):
        members = random_key_tree(random.Random(seed), prefix_closed)
        assert _diagram_keys(members) == {w: diagram_key(w) for w in members}
