"""Differential gates for moving total structures through JSON in bulk.

``build`` writes every nonempty model, total and in canonical order as every
builder makes it (``test_build_order.py``), through
``structures.structure_text``: sorted item strings, ``_CHUNK`` at a time. The
chunks joined must equal ``indented_json(structure_to_json(m))`` and
``json.dumps(..., indent=2, sort_keys=True)``, each with its newline, and the
empty model, which it cannot write, must keep the old writer. ``member``
reads a total file through ``structures.structure_colors``, which checks it
in bulk and reads only the colors the membership walk asks for; on every
file, malformed or not, it must give the stdout, stderr and exit code of the
reader that built the whole structure, kept below as a reference. Neither
path may hold what the old one held.
"""

import json
import math
import os
import tracemalloc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma import structures
from chroma.cli import indented_json, main
from chroma.diagrams import RelSymbol, _whole
from chroma.structures import (
    ColoringStructure,
    _canonical_keys,
    canonical_subsets,
    in_class,
    membership,
    structure_colors,
    structure_text,
    structure_from_json,
    structure_to_json,
    subset_key,
    validate_structure,
)


def expected_text(m: ColoringStructure) -> str:
    payload = structure_to_json(m)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert indented_json(payload) + "\n" == text
    return text


@st.composite
def total_structures(draw, min_size=1, max_size=6):
    """A total structure in canonical order, on points that are often 10 or more and far apart."""
    size = draw(st.integers(min_size, max_size))
    points = st.one_of(st.integers(-3, 12), st.integers(-300, 300))
    universe = tuple(sorted(draw(st.sets(points, min_size=size, max_size=size))))
    ids = st.integers(0, 3)
    return ColoringStructure(universe, {s: RelSymbol(len(s), draw(ids)) for s in canonical_subsets(universe)})


def structure(universe, id_of=lambda s: sum(s) % 3) -> ColoringStructure:
    return ColoringStructure(universe, {s: RelSymbol(len(s), id_of(s)) for s in canonical_subsets(universe)})


class TestWriter:
    @given(total_structures())
    @settings(max_examples=200, deadline=None)
    def test_chunks_join_to_the_indented_text(self, m):
        assert "".join(structure_text(m)) == expected_text(m)

    @pytest.mark.parametrize(
        "universe",
        [(0,), (7,), (-5,), (3, 10, 200), (1, 2, 10), (1, 10, 11, 100), (-10, -1, 0, 1, 10), tuple(range(8, 14))],
    )
    def test_named_universes(self, universe):
        m = structure(universe)
        assert "".join(structure_text(m)) == expected_text(m)

    def test_text_order_differs_from_number_order(self):
        # "[1,2]" < "[10]" < "[1]": the items are sorted as text, not by their points.
        m = structure((1, 2, 10))
        text = "".join(structure_text(m))
        assert text.index('"[1,2]"') < text.index('"[10]"') < text.index('"[1]"')
        assert text == expected_text(m)

    @pytest.mark.parametrize("chunk", [6, 7, 8, 1, 2])
    def test_item_counts_around_the_chunk_size(self, chunk, monkeypatch):
        monkeypatch.setattr(structures, "_CHUNK", chunk)
        m = structure((3, 10, 200))  # 7 items
        chunks = list(structure_text(m))
        assert len(chunks) == math.ceil(7 / chunk) + 1
        assert "".join(chunks) == expected_text(m)

    @pytest.mark.parametrize("points", [11, 12, 13])
    def test_the_real_chunk_size(self, points):
        # 2047, 4095 and 8191 items around one and two chunks of 2048.
        m = structure(tuple(range(points)))
        chunks = list(structure_text(m))
        assert len(chunks) == math.ceil(((1 << points) - 1) / structures._CHUNK) + 1
        assert "".join(chunks) == expected_text(m)

    def test_out_and_stdout_give_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        params = tmp_path / "mono.json"
        diagram = [[k, 0] for k in range(1, 6)]
        params.write_text(json.dumps({"diagram": diagram, "n": 5, "universe": [200, 3, 10, 11, 1]}))
        m = structures.monochromatic_model(tuple(RelSymbol(*p) for p in diagram), 5, [200, 3, 10, 11, 1])
        expected = expected_text(m)

        def refuse(m):
            raise AssertionError("a total structure in canonical order took the old writer")

        monkeypatch.setattr(structures, "structure_to_json", refuse)
        assert main(["build", "mono", "--in", str(params)]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "model.json"
        assert main(["build", "mono", "--in", str(params), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert stdout == out.read_text() == expected
        assert out.read_bytes() == expected.encode()

    def test_the_empty_model_takes_the_dict_writer(self, tmp_path, capsys, monkeypatch):
        def refuse(m):
            raise AssertionError("the bulk writer took the empty model")

        monkeypatch.setattr(structures, "structure_text", refuse)
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"diagram": [], "n": 0}))
        assert main(["build", "mono", "--in", str(params)]) == 0
        assert capsys.readouterr().out == expected_text(ColoringStructure((), {}))


# -- the reader ---------------------------------------------------------------

def reference_walk_colors(raw: dict, universe):
    """The reader's canonical walk before the bulk check: one key and one pair at a time."""
    symbols: dict[tuple, RelSymbol] = {}
    colors = {}
    for key, subset in zip(_canonical_keys(universe), canonical_subsets(universe)):
        pair = raw.get(key)
        if not isinstance(pair, list):
            return None
        try:
            arity, id_ = pair
            sym = symbols.get((arity, id_))
            if sym is None:
                sym = RelSymbol(_whole(arity), _whole(id_))
                sym = symbols.setdefault(sym, sym)
        except (TypeError, ValueError, OverflowError):
            return None
        if sym.arity != len(subset):
            return None
        colors[subset] = sym
    return colors if len(colors) == len(raw) else None


def reference_read_colors(raw: dict, universe):
    items = raw.items()
    if len(items) == (1 << len(universe)) - 1:
        colors = reference_walk_colors(raw, universe)
        if colors is not None:
            return colors, True
    symbols: dict[tuple, RelSymbol] = {}
    colors = {}
    for key, pair in items:
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
        colors[subset] = sym
    return colors, False


def reference_structure_from_json(data) -> ColoringStructure:
    try:
        universe = tuple(sorted(_whole(x) for x in data["universe"]))
        colors, valid = reference_read_colors(data["colors"], universe)
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None
    except OverflowError as e:
        raise ValueError(str(e)) from None
    except (TypeError, AttributeError) as e:
        raise ValueError(
            "a structure is {'universe': [int, ...], 'colors': {'[int, ...]': [arity, id]}}"
            f" ({e})"
        ) from None
    m = ColoringStructure(universe, colors)
    if not valid:
        validate_structure(m)
    return m


def reference_colors(data):
    """The universe and color getter of the structure the reference reader builds whole."""
    m = reference_structure_from_json(data)
    return m.universe, m.colors.__getitem__


class Prefixes:
    """The family of the prefixes of the diagram with symbol (k, 0) at each arity k."""

    @staticmethod
    def allows(w) -> bool:
        return all(sym == (k, 0) for k, sym in enumerate(w, start=1))


def report_or_error(read, data):
    try:
        return membership(*read(data), Prefixes)
    except ValueError as e:
        return str(e)


UNIVERSE = [0, 1, 2, 10]


def base_document() -> dict:
    """A total file as ``build`` writes it: (k, 0) at every size k but (2, 1) on {1, 2}."""
    colors = {subset_key(s): [len(s), int(s == (1, 2))] for s in canonical_subsets(UNIVERSE)}
    return {"colors": dict(sorted(colors.items())), "universe": list(UNIVERSE)}


def set_color(key, value):
    def mutate(data):
        data["colors"][key] = value

    return mutate


def rename(key, new):
    def mutate(data):
        data["colors"] = {new if k == key else k: v for k, v in data["colors"].items()}

    return mutate


def set_universe(universe, padding=0):
    def mutate(data):
        data["universe"] = universe
        for i in range(padding):
            data["colors"][f"[{100 + i}]"] = [1, 0]

    return mutate


def repeated_point_with_its_keys(data):
    """A universe repeating a point, with every key its canonical walk looks up, padded to its count."""
    universe = [0, 1, 1, 2]
    colors = {subset_key(s): [len(s), 0] for s in canonical_subsets(universe)}
    colors.update({f"[{100 + i}]": [1, 0] for i in range((1 << len(universe)) - 1 - len(colors))})
    data.update(universe=universe, colors=colors)


# Each case changes a document in place, or returns the document that replaces it.
MALFORMED = {
    "intact": lambda data: None,
    "missing-key": lambda data: data["colors"].__delitem__("[2]"),
    "missing-key-same-count": rename("[2]", "[7]"),
    "extra-key": set_color("[7]", [1, 0]),
    "string": set_color("[2]", "10"),
    "object": set_color("[2]", {"arity": 1, "id": 0}),
    "null": set_color("[0,2]", None),
    "empty-pair": set_color("[0,2]", []),
    "triple": set_color("[0,2]", [2, 0, 0]),
    "numeric-string-arity": set_color("[2]", ["1", 0]),
    "numeric-string-id": set_color("[2]", [1, "1"]),
    "fraction-arity": set_color("[2]", [1.5, 0]),
    "fraction-id": set_color("[0,1]", [2, 1.5]),
    "nan-arity": set_color("[2]", [math.nan, 0]),
    "nan-id": set_color("[0,1,2]", [3, math.nan]),
    "infinite-id": set_color("[0,1,2]", [3, math.inf]),
    "float-arity": set_color("[2]", [1.0, 0]),
    "float-id": set_color("[1,2]", [2, 1.0]),
    "true-arity": set_color("[10]", [True, 0]),
    "true-id": set_color("[1,2]", [2, True]),
    "unhashable-arity": set_color("[1,10]", [[2], 0]),
    "unhashable-id": set_color("[1,10]", [2, {"id": 0}]),
    "arity-first-size": set_color("[0]", [2, 0]),
    "arity-last-size": set_color("[0,1,2,10]", [3, 0]),
    "arity-middle-size": set_color("[0,2,10]", [4, 0]),
    "unsorted-universe": set_universe([10, 2, 0, 1]),
    "duplicate-point": set_universe([0, 1, 2, 2, 10]),
    "duplicate-point-same-count": set_universe([0, 1, 2, 2, 10], padding=16),
    "duplicate-point-all-keys": repeated_point_with_its_keys,
    "spaced-key": rename("[0,1]", "[0, 1]"),
    "reversed-key": rename("[0,1]", "[1,0]"),
    "padded-key": rename("[0]", " [0]"),
    "float-key": rename("[2]", "[2.0]"),
    "universe-not-a-list": set_universe(5),
    "universe-strings": set_universe(["0", "1", "2", "10"]),
    "universe-float": set_universe([0, 1, 2, 10.5]),
    "colors-a-list": lambda data: data.update(colors=[]),
    "colors-missing": lambda data: data.__delitem__("colors"),
    "universe-missing": lambda data: data.__delitem__("universe"),
    "not-an-object": lambda data: [data],
}


# Pair values that only some readers accept: the reference decides which.
BAD_VALUES = ["10", None, [], [1, 0, 0], ["1", 0], [1.5, 0], [math.nan, 0], [True, 0], [1.0, 0], [[1], 0], [0, 1.0]]


@st.composite
def corrupted_documents(draw):
    """A total structure's JSON with up to two entries corrupted, its universe at times reversed or repeated."""
    m = draw(total_structures(min_size=0, max_size=5))
    doc = json.loads(json.dumps(structure_to_json(m)))
    keys = sorted(doc["colors"])
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)) if keys else []:
        kind = draw(st.sampled_from(["value", "arity", "respell", "drop", "outside"]))
        if kind == "value":
            doc["colors"][key] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "arity":
            doc["colors"][key] = [len(json.loads(key)) + 1, 0]
        elif kind == "drop":
            del doc["colors"][key]
        else:
            rename(key, "[999]" if kind == "outside" else key.replace(",", ", ").replace("[", " ["))(doc)
    if doc["universe"] and draw(st.booleans()):
        doc["universe"] = doc["universe"][::-1] + doc["universe"][: draw(st.integers(0, 1))]
    return doc


class TestReader:
    @pytest.fixture
    def family_file(self, tmp_path):
        path = tmp_path / "family.json"
        members = [[[k, 0] for k in range(1, n + 1)] for n in range(5)]
        path.write_text(json.dumps({"arities": {"1": 1, "2": 2, "3": 1, "4": 1}, "members": members}))
        return str(path)

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_member_matches_the_reference(self, case, tmp_path, family_file, capsys, monkeypatch):
        data = base_document()
        data = MALFORMED[case](data) or data  # a case returns a document only to replace it whole
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(data))
        argv = ["member", "--structure", str(path), "--diagrams", family_file]
        code = main(argv)
        new = (code, *capsys.readouterr())
        monkeypatch.setattr(structures, "structure_colors", reference_colors)
        code = main(argv)
        assert new == (code, *capsys.readouterr())

    def test_intact_file_reports_the_recolored_pair(self, tmp_path, family_file, capsys):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(base_document()))
        assert main(["member", "--structure", str(path), "--diagrams", family_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ok": False, "violating_subset": [1, 2], "diagram": [[1, 0], [2, 1]]}

    def test_a_total_file_builds_no_structure(self, monkeypatch):
        def refuse(data):
            raise AssertionError("a total canonical file was read whole")

        monkeypatch.setattr(structures, "structure_from_json", refuse)
        data = json.loads(json.dumps(base_document()))
        report = membership(*structure_colors(data), Prefixes)
        assert (report.ok, report.violating_subset) == (False, (1, 2))

    @given(corrupted_documents())
    @settings(max_examples=300, deadline=None)
    def test_random_corruptions(self, doc):
        assert report_or_error(structure_colors, doc) == report_or_error(reference_colors, doc)

    @given(corrupted_documents())
    @settings(max_examples=300, deadline=None)
    def test_member_and_structure_from_json_agree(self, doc):
        # The two readers share no code on a file the bulk check accepts.
        try:
            expected = in_class(structure_from_json(doc), Prefixes)
        except ValueError as e:
            expected = str(e)
        assert report_or_error(structure_colors, doc) == expected

    @pytest.mark.parametrize(
        "universe, colors",
        [([0], {"[0]": (1, 0)}), ([0, 1], {"[0]": [1, 0], "[1]": (1, 0), "[0,1]": [2, 0]})],
        ids=["first-of-its-value", "value-seen-before"],
    )
    def test_tuple_pairs(self, universe, colors):
        # Not JSON, but library input: a tuple is refused unless a list of its value came first.
        data = {"universe": universe, "colors": colors}
        assert report_or_error(structure_colors, data) == report_or_error(reference_colors, data)

    def test_structure_from_json_matches_the_reference_and_member(self):
        data = json.loads(json.dumps(base_document()))
        m = structure_from_json(data)
        assert m == reference_structure_from_json(data)
        assert in_class(m, Prefixes) == membership(*structure_colors(data), Prefixes)


# -- memory --------------------------------------------------------------------

def twelve_point_structure() -> ColoringStructure:
    return structure(tuple(range(12)), lambda s: sum(s) % 2)


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


class Everything:
    @staticmethod
    def allows(w) -> bool:
        return True


class TestMemory:
    # Each test keeps its source structure alive: freed, its subset tuples
    # would be reused from the interpreter's free lists, out of tracemalloc's sight.

    def test_the_writer_peaks_below_the_indented_json_pass(self):
        source = twelve_point_structure()
        payload = structure_to_json(source)
        _, _, old_peak = traced(lambda: indented_json(payload))

        def write():
            with open(os.devnull, "w") as fh:
                fh.writelines(structure_text(source))

        _, _, new_peak = traced(write)
        assert new_peak < old_peak
        assert list(source.colors) == list(canonical_subsets(source.universe))

    def test_the_member_path_peaks_below_half_of_what_the_reader_keeps(self):
        source = twelve_point_structure()
        data = json.loads(indented_json(structure_to_json(source)))
        m, kept, _ = traced(lambda: structure_from_json(data))
        assert m == source
        del m
        report, _, peak = traced(lambda: membership(*structure_colors(data), Everything))
        assert report.ok
        assert peak < kept / 2
        assert len(source.colors) == len(data["colors"])
