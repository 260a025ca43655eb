"""Differential gates for the structure JSON path.

``cli.indented_json`` must write exactly what ``json.dumps(value, indent=2,
sort_keys=True)`` writes, and fail where it fails with the same error class.
``structure_from_json`` reads every file key by key; one reference below
parses every key with ``json.loads`` and checks totality from the
definition, and must agree with the reader on every input. Another is the
reader that looked canonical keys up in a table of them: its colors must
equal the file-order reader's, and its flag must say whether the canonical
walk ``member`` runs accepts the file. Neither direction may hold a second
full-size copy of a structure's keys or text.
"""

import json
import math
import tracemalloc
from itertools import combinations, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.cli import indented_json
from chroma.diagrams import RelSymbol, _whole
from chroma.structures import (
    ColoringStructure,
    _canonical_keys,
    _read_colors,
    _walk_colors,
    canonical_subsets,
    structure_from_json,
    structure_to_json,
    subset_key,
)


def reference_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as e:
        return type(e)


NUMBERS = st.sampled_from([1, True, 1.0, 0, False, 0.0, -0.0, 2, 2.0])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.characters(), max_size=6),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "é", " ", "😀", ""]),
    NUMBERS,
)
LEAF_LISTS = st.one_of(st.lists(SCALARS, max_size=4), st.lists(NUMBERS, min_size=1, max_size=3))
KEYS = st.one_of(st.text(max_size=4), st.sampled_from(['"', "é", "\n", "[0,1]", "[0,10]", "a b"]))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    )


VALUES = st.recursive(st.one_of(SCALARS, LEAF_LISTS), containers, max_leaves=24)


@st.composite
def shared_leaves(draw):
    """One leaf list, and an equal copy, at several nesting levels next to other values."""
    leaf = draw(LEAF_LISTS)
    other = draw(VALUES)
    return {"top": leaf, "copy": list(leaf), "nested": [leaf, {"deeper": leaf, "x": other}], "v": other}


class TestIndentedJson:
    @given(VALUES)
    @settings(max_examples=250, deadline=None)
    def test_matches_json_dumps(self, value):
        assert outcome(indented_json, value) == outcome(reference_dumps, value)

    @given(shared_leaves())
    @settings(max_examples=100, deadline=None)
    def test_same_leaf_list_at_several_levels(self, value):
        assert indented_json(value) == reference_dumps(value)

    @given(st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()), SCALARS, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_non_string_keys(self, value):
        assert outcome(indented_json, value) == outcome(reference_dumps, value)

    @pytest.mark.parametrize(
        "value",
        [
            [[1, 0], [True, False], [1.0, 0.0], [1, True, 1.0]],
            {"a": [True, False], "b": [1, 0], "c": [[1, 0], [True, False]]},
            [[0.0], [-0.0], [0], [False]],
            [[math.nan, math.inf, -math.inf], [math.nan]],
            {"k": [], "l": {}, "m": [[]], "n": [{}]},
            {"colors": {"[0]": [1, 0], "[0,1]": [2, 0], "[1]": [1, 0]}, "universe": [0, 1]},
            [RelSymbol(1, 0), (2, 0), "x"],
            {2: "a", 10: "b", -1: "c", 2.5: "d", True: "e"},
            "plain",
            None,
        ],
    )
    def test_examples(self, value):
        assert indented_json(value) == reference_dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            {1: "a", "b": 2},
            {(1, 2): 3},
            [object()],
            {"a": {1, 2}},
        ],
        ids=["mixed-keys", "tuple-key", "object", "set"],
    )
    def test_errors_match(self, value):
        with pytest.raises(TypeError):
            reference_dumps(value)
        with pytest.raises(TypeError):
            indented_json(value)

    def test_circular_reference(self):
        loop = [1]
        loop.append(loop)
        box = {}
        box["self"] = box
        for value in (loop, box):
            with pytest.raises(ValueError, match="Circular reference"):
                indented_json(value)

    def test_shared_container_is_not_circular(self):
        inner = {"a": [1, {"b": 2}]}
        value = [inner, inner, {"again": inner}]
        assert indented_json(value) == reference_dumps(value)

    def test_structure_payloads(self):
        universe = tuple(range(6))
        colors = {
            s: RelSymbol(len(s), (sum(s) * 7 + len(s)) % 3)
            for n in range(1, 7)
            for s in combinations(universe, n)
        }
        payload = structure_to_json(ColoringStructure(universe, colors))
        assert indented_json(payload) == reference_dumps(payload)


def reference_from_json(data) -> ColoringStructure:
    """Every key through ``json.loads``; totality and arities checked from the definition."""
    try:
        universe = tuple(sorted(int(x) for x in data["universe"]))
        colors = {}
        for key, pair in data["colors"].items():
            colors[tuple(sorted(map(int, json.loads(key))))] = RelSymbol(int(pair[0]), int(pair[1]))
    except (KeyError, TypeError, IndexError, AttributeError) as e:
        raise ValueError(e)
    m = ColoringStructure(universe, colors)
    subsets = [s for n in range(1, len(universe) + 1) for s in combinations(universe, n)]
    if set(colors) != set(subsets) or any(colors[s].arity != len(s) for s in subsets):
        raise ValueError("not a total arity-disciplined coloring")
    return m


def key_variants(s):
    """Keys that all name the subset s; only the first is canonical."""
    out = [subset_key(s), " " + subset_key(s), "[" + ", ".join(map(str, reversed(s))) + "]"]
    out.append("[" + ",".join(f"{p}.0" for p in s) + "]")
    if set(s) <= {0, 1}:
        out.append(json.dumps([bool(p) for p in s]))
    return out


@st.composite
def structure_documents(draw):
    """A structure's JSON, with keys rewritten, colors dropped, doubled points and outside keys."""
    size = draw(st.integers(0, 4))
    universe = sorted(draw(st.sets(st.integers(-2, 6), min_size=size, max_size=size)))
    colors = {}
    for n in range(1, size + 1):
        for s in combinations(universe, n):
            if draw(st.integers(0, 19)) == 0:
                continue  # a missing subset
            variants = key_variants(s)
            key = variants[0] if draw(st.booleans()) else draw(st.sampled_from(variants))
            arity = n if draw(st.integers(0, 19)) else n + 1
            colors[key] = [arity, draw(st.integers(0, 2))]
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(
            st.sampled_from(["[0,0]", "[7]", "[-3,0]", "[1, 0]", "[true]", "[1.0]", " [0]", "[0,1]"])
        )
        colors[extra] = [len(json.loads(extra)), 0]
    order = draw(st.permutations(sorted(colors)))
    return {"universe": draw(st.permutations(universe)), "colors": {k: colors[k] for k in order}}


class TestStructureReader:
    @given(structure_documents())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_key_parse(self, data):
        try:
            expected = reference_from_json(data)
        except ValueError:
            with pytest.raises(ValueError):
                structure_from_json(data)
            return
        m = structure_from_json(data)
        assert m == expected
        # Every file is read in file order.
        assert list(m.colors) == list(expected.colors)
        symbols = list(m.colors.values())
        assert len({id(sym) for sym in symbols}) == len(set(symbols))

    @pytest.mark.parametrize(
        "colors",
        [
            {"[1, 0]": [2, 0], " [0]": [1, 0], "[1]": [1, 1]},
            {"[0,1]": [2, 0], "[0]": [1, 0], "[1.0]": [1, 1]},
            {"[0,1]": [2, 0], "[0]": [1, 0], "[true]": [1, 1]},
            {"[0,1]": [2, 0], "[0]": [1, 0], "[0,0]": [2, 1]},
            {"[0,1]": [2, 0], "[0]": [1, 0], "[2]": [1, 1]},
            {"[0,1]": [2, 0], "[0]": [1, 0]},
            {"[0,1]": [2, 0], "[0]": [1, 0], "[1]": [1, 1], "[1, 0]": [2, 1]},
        ],
        ids=["spaces", "float", "bool", "doubled-point", "outside", "missing", "two-spellings"],
    )
    def test_named_keys(self, colors):
        data = {"universe": [0, 1], "colors": colors}
        try:
            expected = reference_from_json(data)
        except ValueError:
            with pytest.raises(ValueError):
                structure_from_json(data)
            return
        assert structure_from_json(data) == expected


def table_read_colors(raw: dict, universe) -> tuple[dict, bool]:
    """The reader that looked canonical keys up in a table of all of them, kept as a reference."""
    items = raw.items()
    table = {}
    if len(items) == (1 << len(universe)) - 1:
        table = dict(zip(_canonical_keys(universe), canonical_subsets(universe)))
    valid = bool(table)
    symbols: dict[tuple, RelSymbol] = {}
    colors = {}
    for key, pair in items:
        subset = table.get(key)
        if subset is None:
            valid = False
            try:
                parsed = json.loads(key)
            except RecursionError:
                raise ValueError("subset key nested too deeply") from None
            subset = tuple(sorted(map(_whole, parsed)))
        try:
            arity, id_ = pair
        except TypeError:
            raise TypeError(f"color {pair!r} of subset {key} is not a list") from None
        except ValueError:
            raise TypeError(f"color {pair!r} of subset {key} has length {len(pair)}, not 2") from None
        sym = symbols.get((arity, id_))
        if sym is None:
            if not isinstance(pair, list):
                raise TypeError(f"color {pair!r} is not a list")
            sym = RelSymbol(_whole(arity), _whole(id_))
            sym = symbols.setdefault(sym, sym)
        if sym.arity != len(subset):
            valid = False
        colors[subset] = sym
    return colors, valid


def read_outcome(read, raw, universe):
    try:
        return read(raw, universe)
    except Exception as e:
        return type(e), str(e)


def read_and_walk(raw, universe):
    """The file-order reader's colors, and whether the canonical walk accepts the file."""
    return _read_colors(raw), _walk_colors(raw, universe) is not None


def assert_same_read(raw, universe):
    """Equal colors and flag, or the same exception type and message, from both sides."""
    expected = read_outcome(table_read_colors, raw, universe)
    if not raw and not universe:
        # The table reader flags the empty coloring as unchecked; the walk
        # finds it total, as ``validate_structure`` does.
        expected = ({}, True)
    assert read_outcome(read_and_walk, raw, universe) == expected


CORRUPTIONS = ["string", "dict", "triple", "fraction", "numeric-string", "arity", "respelled", "repeated-point"]


@st.composite
def total_documents(draw):
    """A total coloring's JSON, every key canonical, in shuffled order, with 0-2 corrupted entries.

    A repeated universe point keeps the count of colors at that of the
    universe with the repeat, padding with keys outside it.
    """
    size = draw(st.integers(0, 6))
    universe = sorted(draw(st.sets(st.integers(-2, 12), min_size=size, max_size=size)))
    kinds = draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2))
    if "repeated-point" in kinds and universe:
        universe = sorted(universe + [draw(st.sampled_from(universe))])
    colors = {subset_key(s): [len(s), draw(st.integers(0, 2))] for s in canonical_subsets(universe)}
    outside = (subset_key((100 + i,)) for i in count())
    while len(colors) < (1 << len(universe)) - 1:
        colors[next(outside)] = [1, 0]
    for kind in kinds:
        if kind == "repeated-point" or not colors:
            continue
        key = draw(st.sampled_from(sorted(colors)))
        subset = json.loads(key)
        arity = len(subset)
        if kind == "respelled":
            respelled = "[ " + ", ".join(map(str, reversed(subset))) + "]"
            colors = {respelled if k == key else k: v for k, v in colors.items()}
            continue
        colors[key] = {
            "string": "10",
            "dict": {"arity": arity, "id": 0},
            "triple": [arity, 0, 0],
            "fraction": [1.5, 0],
            "numeric-string": ["1", 0],
            "arity": [arity + 1, 0],
        }[kind]
    order = draw(st.permutations(list(colors)))
    return {"universe": universe, "colors": {k: colors[k] for k in order}}


class TestCanonicalWalk:
    """The walk over canonical keys against the reader that kept a table of them."""

    @given(total_documents())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_table_reader(self, data):
        assert_same_read(data["colors"], tuple(data["universe"]))

    @pytest.mark.parametrize(
        "colors, universe",
        [
            ({"[0]": [1, 0], "[1]": [1, 1], "[0,1]": [2, 0]}, (0, 1)),
            ({"[0,1]": [2, 0], "[1]": [1, 1], "[0]": "10"}, (0, 1)),
            ({"[0,1]": [2, 0], "[1]": [1.5, 0], "[0]": [1, 0]}, (0, 1)),
            ({"[0,1]": [3, 0], "[1]": [1, 1], "[0]": [1, 0]}, (0, 1)),
            ({"[0]": [1, 0], "[0,0]": [2, 0], "[5]": [1, 0]}, (0, 0)),
            ({}, ()),
        ],
        ids=["total", "string", "fraction", "arity", "repeated-point", "empty"],
    )
    def test_named_documents(self, colors, universe):
        assert_same_read(colors, universe)


def twelve_point_structure() -> ColoringStructure:
    universe = tuple(range(12))
    return ColoringStructure(
        universe, {s: RelSymbol(len(s), sum(s) % 2) for s in canonical_subsets(universe)}
    )


def traced(call):
    """The value of ``call()`` with the bytes it kept and its peak, both above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, kept - start, peak - start


class TestMemory:
    """Reading and writing a total 12-point structure hold no second full-size copy of it."""

    # Each test keeps its source structure alive: freed, its subset tuples
    # would be reused from the interpreter's free lists, out of tracemalloc's sight.

    def test_reading_peaks_near_what_it_keeps(self):
        source = twelve_point_structure()
        data = json.loads(indented_json(structure_to_json(source)))
        m, kept, peak = traced(lambda: structure_from_json(data))
        assert m == source
        assert peak <= 1.25 * kept

    def test_writing_peaks_within_a_few_output_lengths(self):
        source = twelve_point_structure()
        payload = structure_to_json(source)
        text, _, peak = traced(lambda: indented_json(payload))
        assert text == reference_dumps(payload)
        assert peak <= 3.6 * len(text)
