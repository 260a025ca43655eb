"""One exit-2 path: every library ValueError is bad input, and a RuntimeError is a bug.

Each command is run through ``cli.main`` with one library function it calls
replaced by one that raises. A ``ValueError`` must come out as exit 2, no
output and the single line ``error: boom`` (``build`` keeps its documented
``<file>: `` prefix), which only the replacement can have printed; a
``RuntimeError`` must leave ``main`` unchanged. The malformed ``[arity, id]``
pairs, and the colors and diagrams that are numbers, that once reported
Python's own text are checked here by the text each command prints now, as
is a ``--lambda-max`` above ``amalgamation.SCAN_LIMIT``, which ``spectra_scan``
refuses before scanning any size.
"""

import json

import pytest

from chroma import amalgamation, diagrams, rank, structures, walpha
from chroma.cli import main
from chroma.diagrams import diagram_set_to_json
from conftest import t1_set

SYSTEM = {
    "x": [0],
    "a1": 1,
    "a2": 2,
    "c1": {"universe": [0, 1], "colors": {"[0]": [1, 0], "[1]": [1, 0], "[0,1]": [2, 0]}},
    "c2": {"universe": [0, 2], "colors": {"[0]": [1, 0], "[2]": [1, 0], "[0,2]": [2, 0]}},
    "wbar": [[1, 0], [2, 0]],
    "cstar": {"universe": [0], "colors": {"[0]": [1, 0]}},
}
STRUCTURE = {"universe": [0], "colors": {"[0]": [1, 0]}}

# Each command's arguments, "@t1", "@system", "@structure" and "@params" standing
# for files written by the fixture, and the library function replaced in it.
CALLS = {
    "rank": (["rank", "--in", "@t1"], rank, "rank_table"),
    "member": (["member", "--structure", "@structure", "--diagrams", "@t1"], structures, "membership"),
    "amalgamate-dap": (["amalgamate", "--system", "@system", "--diagrams", "@t1"], amalgamation, "dap_search"),
    "amalgamate-ap": (
        ["amalgamate", "--system", "@system", "--diagrams", "@t1", "--mode", "ap"], amalgamation, "ap_search",
    ),
    "amalgamate-from-ap": (
        ["amalgamate", "--system", "@system", "--diagrams", "@t1", "--mode", "from-ap"],
        amalgamation,
        "dap_from_ap",
    ),
    "amalgamate-infinite": (
        ["amalgamate", "--system", "@system", "--diagrams", "@t1", "--mode", "infinite"],
        amalgamation,
        "amalgamate_infinite",
    ),
    "amalgamate-quotient": (
        ["amalgamate", "--system", "@system", "--diagrams", "@t1", "--mode", "quotient"],
        amalgamation,
        "amalgamate_quotient",
    ),
    "build": (["build", "mono", "--in", "@params"], structures, "monochromatic_model"),
    "spectra": (["spectra", "--diagrams", "@t1", "--lambda-max", "1"], amalgamation, "spectra_scan"),
    "walpha-verify": (
        ["walpha-verify", "--alpha", "1", "--F", "0", "--max-arity", "2"], walpha, "verify_claim",
    ),
    "quotient": (["quotient", "--in", "@t1", "--wbar", "[[1,0]]"], diagrams, "quotient"),
    "prune": (["prune", "--in", "@t1", "--keep", "[[[1,0]]]"], diagrams, "prune"),
}


@pytest.fixture
def files(tmp_path):
    documents = {
        "t1": diagram_set_to_json(t1_set()),
        "system": SYSTEM,
        "structure": STRUCTURE,
        "params": {"diagram": [[1, 0]], "n": 1},
    }
    paths = {}
    for name, doc in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[f"@{name}"] = str(path)
    return paths


def argv_of(case, files):
    argv, _, _ = CALLS[case]
    return [files.get(arg, arg) for arg in argv]


def raising(error):
    def replacement(*args, **kwargs):
        raise error

    return replacement


@pytest.mark.parametrize("case", list(CALLS))
def test_a_library_value_error_is_an_input_error(monkeypatch, capsys, files, case):
    _, module, name = CALLS[case]
    monkeypatch.setattr(module, name, raising(ValueError("boom")))
    code = main(argv_of(case, files))
    captured = capsys.readouterr()
    prefix = f"{files['@params']}: " if case == "build" else ""
    assert (code, captured.out, captured.err) == (2, "", f"error: {prefix}boom\n")


@pytest.mark.parametrize("case", list(CALLS))
def test_a_runtime_error_leaves_main(monkeypatch, capsys, files, case):
    _, module, name = CALLS[case]
    monkeypatch.setattr(module, name, raising(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="^boom$"):
        main(argv_of(case, files))
    assert capsys.readouterr().out == ""


class TestMalformedPairs:
    """A pair of the wrong length is named in the error, with its subset in a structure."""

    def error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        return captured.err

    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_rank_member_with_a_one_item_pair(self, capsys, tmp_path):
        path = self.write(tmp_path, "d.json", {"arities": {"1": 1}, "members": [[], [[1]]]})
        assert self.error(capsys, ["rank", "--in", path]) == (
            f"error: {path}: invalid diagram set: a diagram is a list of [arity, id] pairs"
            " (pair [1] has length 1, not 2)\n"
        )

    @pytest.mark.parametrize("keep, pair", [("[[[1]]]", "[1]"), ("[[[1,0,0]]]", "[1, 0, 0]"), ("[[[]]]", "[]")])
    def test_prune_keep(self, capsys, files, keep, pair):
        length = len(json.loads(pair))
        assert self.error(capsys, ["prune", "--in", files["@t1"], "--keep", keep]) == (
            f"error: a diagram is a list of [arity, id] pairs (pair {pair} has length {length}, not 2)\n"
        )

    @pytest.mark.parametrize(
        "color, shown, length", [([], "[]", 0), ("abc", "'abc'", 3), ([1, 0, 0], "[1, 0, 0]", 3)]
    )
    def test_member_color(self, capsys, tmp_path, files, color, shown, length):
        path = self.write(tmp_path, "m.json", {"universe": [0], "colors": {"[0]": color}})
        assert self.error(capsys, ["member", "--structure", path, "--diagrams", files["@t1"]]) == (
            f"error: {path}: invalid structure: a structure is"
            " {'universe': [int, ...], 'colors': {'[int, ...]': [arity, id]}}"
            f" (color {shown} of subset [0] has length {length}, not 2)\n"
        )

    def test_amalgamate_side_color(self, capsys, tmp_path, files):
        system = json.loads(json.dumps(SYSTEM))
        system["c2"]["colors"]["[0,2]"] = [1, 0, 0]
        path = self.write(tmp_path, "s.json", system)
        assert self.error(capsys, ["amalgamate", "--system", path, "--diagrams", files["@t1"]]) == (
            f"error: {path}: invalid system: a structure is"
            " {'universe': [int, ...], 'colors': {'[int, ...]': [arity, id]}}"
            " (color [1, 0, 0] of subset [0,2] has length 3, not 2)\n"
        )

    def test_member_color_that_is_a_number(self, capsys, tmp_path, files):
        path = self.write(tmp_path, "m.json", {"universe": [0], "colors": {"[0]": 5}})
        assert self.error(capsys, ["member", "--structure", path, "--diagrams", files["@t1"]]) == (
            f"error: {path}: invalid structure: a structure is"
            " {'universe': [int, ...], 'colors': {'[int, ...]': [arity, id]}}"
            " (color 5 of subset [0] is not a list)\n"
        )

    def test_diagram_that_is_a_number(self, capsys, tmp_path, files):
        text = "a diagram is a list of [arity, id] pairs (diagram 5 is not a list)\n"
        path = self.write(tmp_path, "d.json", {"arities": {"1": 1}, "members": [[], 5]})
        assert self.error(capsys, ["rank", "--in", path]) == f"error: {path}: invalid diagram set: {text}"
        assert self.error(capsys, ["prune", "--in", files["@t1"], "--keep", "[5]"]) == f"error: {text}"
        assert self.error(capsys, ["quotient", "--in", files["@t1"], "--wbar", "5"]) == f"error: {text}"
        system = self.write(tmp_path, "s.json", dict(SYSTEM, branch=5))
        argv = ["amalgamate", "--system", system, "--diagrams", files["@t1"], "--mode", "infinite"]
        assert self.error(capsys, argv) == f"error: {text}"

    def test_other_texts_stay(self, capsys, tmp_path, files):
        assert self.error(capsys, ["prune", "--in", files["@t1"], "--keep", "[[[1,5]]]"]) == (
            "error: prune set is not contained in the diagram set: [(RelSymbol(arity=1, id=5),)]\n"
        )
        path = self.write(tmp_path, "m.json", {"universe": [0], "colors": {"[0]": "10"}})
        assert self.error(capsys, ["member", "--structure", path, "--diagrams", files["@t1"]]).endswith(
            "(color '10' is not a list)\n"
        )
        path = self.write(tmp_path, "d.json", {"arities": {"1": 1, "2": 1}, "members": [[], [[1, 0], "20"]]})
        assert self.error(capsys, ["rank", "--in", path]).endswith("(pair '20' is not a list)\n")


class TestScanLimit:
    def test_above_the_limit_is_refused_before_scanning(self, monkeypatch, capsys, files):
        def no_scanning(*args, **kwargs):
            raise AssertionError("a size was scanned")

        monkeypatch.setattr(amalgamation, "enumerate_special_systems", no_scanning)
        monkeypatch.setattr(amalgamation, "sample_special_system", no_scanning)
        lam = amalgamation.SCAN_LIMIT + 1
        argv = ["spectra", "--diagrams", files["@t1"], "--lambda-max", str(lam)]
        for extra in ([], ["--mode", "sampled", "--trials", "3"], ["--budget", "100"]):
            assert (main(argv + extra), *capsys.readouterr()) == (
                2, "", f"error: a scan up to size {lam} exceeds the limit of 65536\n"
            )

    def test_the_limit_itself_is_scanned(self, capsys, tmp_path):
        # The one-member family has no two-point structure, so every size from 2 copies size 1.
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"arities": {"1": 1}, "members": [[]]}))
        lam = amalgamation.SCAN_LIMIT
        assert main(["spectra", "--diagrams", str(path), "--lambda-max", str(lam)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert len(json.loads(out)) == lam + 1


class TestQuotientColoring:
    """``cstar`` is read by ``structure_from_json``, as the sides are, also on an empty base."""

    EMPTY_BASE = {
        "x": [],
        "a1": 0,
        "a2": 1,
        "c1": {"universe": [0], "colors": {"[0]": [1, 0]}},
        "c2": {"universe": [1], "colors": {"[1]": [1, 0]}},
        "wbar": [[1, 0], [2, 0]],
    }

    def run(self, capsys, tmp_path, files, cstar):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**self.EMPTY_BASE, "cstar": cstar}))
        code = main(["amalgamate", "--system", str(path), "--diagrams", files["@t1"], "--mode", "quotient"])
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize(
        "cstar, message",
        [
            ({}, "missing key 'universe'"),
            ({"colors": 7}, "missing key 'universe'"),
            ({"universe": [], "colors": {"[5]": [1, 0]}}, "colors assigned outside the universe: [(5,)]"),
        ],
        ids=["empty-object", "colors-only", "color-outside"],
    )
    def test_a_malformed_coloring_of_an_empty_base(self, capsys, tmp_path, files, cstar, message):
        assert self.run(capsys, tmp_path, files, cstar) == (2, "", f"error: {message}\n")

    def test_the_empty_coloring_of_an_empty_base(self, capsys, tmp_path, files):
        code, out, err = self.run(capsys, tmp_path, files, {"universe": [], "colors": {}})
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["status"], payload["method"]) == ("witness", "quotient")
        assert payload["witness"]["colors"]["[0,1]"] == [2, 0]


class TestNegativeBuildSizes:
    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("mono", {"diagram": [[1, 0]], "n": -1}, "n"),
            ("pair-split", {"m": -1, "stem": [[1, 0]], "pairs": []}, "m"),
            ("k-split", {"m": -2, "stem": [[1, 0], [2, 0]], "components": []}, "m"),
            ("interval-split", {"m": -1, "blocks": []}, "m"),
        ],
    )
    def test_the_field_is_named(self, capsys, tmp_path, kind, params, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        value = params[field]
        assert (main(["build", kind, "--in", str(path)]), *capsys.readouterr()) == (
            2, "", f"error: {path}: '{field}' must be at least 0, not {value}\n"
        )


class TestStrictLanguage:
    """``repeat`` is a JSON boolean and each arity key the decimal text of its integer."""

    @pytest.mark.parametrize(
        "language, message",
        [
            ({"arities": {"1": 1}, "repeat": "false"}, "'repeat' must be true or false, not 'false'"),
            ({"arities": {"1": 1}, "repeat": 1}, "'repeat' must be true or false, not 1"),
            ({"arities": {"1": 1}, "repeat": None}, "'repeat' must be true or false, not None"),
            ({"arities": {"1_0": 1}}, "arity key '1_0' is not the decimal text of an integer"),
            ({"arities": {"01": 1}}, "arity key '01' is not the decimal text of an integer"),
            ({"arities": {" 1": 1}}, "arity key ' 1' is not the decimal text of an integer"),
            ({"arities": {"+1": 1}}, "arity key '+1' is not the decimal text of an integer"),
            ({"arities": {"x": 1}}, "arity key 'x' is not the decimal text of an integer"),
        ],
        ids=["repeat-string", "repeat-number", "repeat-null", "underscore", "leading-zero", "space", "plus", "word"],
    )
    @pytest.mark.parametrize("command", ["rank", "prune", "quotient"])
    def test_refused_by_every_reader(self, capsys, tmp_path, language, message, command):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({**language, "members": [[], [[1, 0]]]}))
        argv = {
            "rank": ["rank", "--in", str(path)],
            "prune": ["prune", "--in", str(path), "--keep", "[[[1,0]]]"],
            "quotient": ["quotient", "--in", str(path), "--wbar", "[[1,0]]"],
        }[command]
        assert (main(argv), *capsys.readouterr()) == (2, "", f"error: {path}: invalid diagram set: {message}\n")

    @pytest.mark.parametrize("repeat", [True, False, None], ids=["true", "false", "absent"])
    def test_a_boolean_repeat_is_written_back(self, capsys, tmp_path, repeat):
        doc = {"arities": {"1": 1}, "members": [[], [[1, 0]]]}
        if repeat is not None:
            doc["repeat"] = repeat
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        assert main(["prune", "--in", str(path), "--keep", "[[[1,0]]]"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.get("repeat", False) is bool(repeat)
        assert out["arities"] == {"1": 1}
