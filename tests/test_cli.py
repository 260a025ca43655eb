"""The command-line surface: JSON in, JSON out, exit codes, determinism."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chroma
from chroma import cli as cli_module
from chroma.amalgamation import SpecialSystem
from chroma.cli import main, system_from_json, system_to_json
from chroma.diagrams import Language, RelSymbol
from chroma.diagrams import diagram_key, diagram_set_to_json, full_tree_set
from chroma.ordinal import Ordinal, render_ordinal
from chroma.rank import rank_table
from chroma.structures import structure_to_json, monochromatic_model
from conftest import A, B, C, E, t1_set


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(diagram_set_to_json(t1_set())))
    return str(path)


def b_system_json():
    return {
        "x": [0],
        "a1": 1,
        "a2": 2,
        "c1": {
            "universe": [0, 1],
            "colors": {"[0]": [1, 0], "[1]": [1, 1], "[0,1]": [2, 0]},
        },
        "c2": {
            "universe": [0, 2],
            "colors": {"[0]": [1, 0], "[2]": [1, 1], "[0,2]": [2, 0]},
        },
    }

# sha256 of the stdout of ``amalgamate --mode from-ap`` on the systems each case answers.
FROM_AP_DIGESTS = {
    "case2": "2f65d24c961d42db4534d4f9637f88f8dc7fedcef1612fbe2f7b130270eac70f",
    "case3": "40be1fc3606fe8c464ada3ad20ce539462c47bfd0be1384c16d496a54193e741",
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestRank:
    def test_emits_cnf_strings(self, capsys, t1_file):
        code, payload = run(capsys, ["rank", "--in", t1_file])
        assert code == 0
        assert payload["ranks"]["[]"] == "3"
        assert payload["ranks"]["[[1,0]]"] == "2"
        assert payload["ranks"]["[[1,0],[2,0],[3,0]]"] == "0"

    def test_ranks_of_a_long_chain_are_their_cnf_text(self, capsys, tmp_path):
        chain = full_tree_set(Language.of({1: 1}), 13)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(diagram_set_to_json(chain)))
        code, payload = run(capsys, ["rank", "--in", str(path)])
        assert code == 0
        ranks = rank_table(chain)
        assert payload["ranks"] == {
            diagram_key(w): render_ordinal(Ordinal.from_int(r)) for w, r in ranks.items()
        }
        assert payload["ranks"]["[]"] == "13"

    def test_deterministic_bytes(self, t1_file, capsys):
        main(["rank", "--in", t1_file])
        first = capsys.readouterr().out
        main(["rank", "--in", t1_file])
        second = capsys.readouterr().out
        assert first == second


class TestMember:
    def test_ok_exit_zero(self, capsys, tmp_path, t1_file):
        s = tmp_path / "m.json"
        s.write_text(json.dumps(structure_to_json(monochromatic_model((A, C, E), 3))))
        code, payload = run(capsys, ["member", "--structure", str(s), "--diagrams", t1_file])
        assert code == 0 and payload["ok"]

    def test_violation_exit_one(self, capsys, tmp_path, t1_file):
        s = tmp_path / "m.json"
        s.write_text(json.dumps(structure_to_json(monochromatic_model((B, C), 2))))
        code, payload = run(capsys, ["member", "--structure", str(s), "--diagrams", t1_file])
        assert code == 1
        assert payload["violating_subset"] == [0, 1]
        assert payload["diagram"] == [[1, 1], [2, 0]]


class TestCollector:
    """``main`` runs without the cyclic garbage collector and restores its state."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_after_every_exit_code(self, capsys, tmp_path, t1_file, enabled):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(structure_to_json(monochromatic_model((B, C), 2))))
        calls = {
            0: ["rank", "--in", t1_file],
            1: ["member", "--structure", str(bad), "--diagrams", t1_file],
            2: ["rank", "--in", str(tmp_path / "missing.json")],
        }
        was = gc.isenabled()
        try:
            for expected, argv in calls.items():
                (gc.enable if enabled else gc.disable)()
                assert main(argv) == expected
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    def test_collector_is_off_during_the_call(self, monkeypatch, capsys, t1_file):
        seen = []
        rank = cli_module._COMMANDS["rank"]

        def spy(args):
            seen.append(gc.isenabled())
            return rank(args)

        monkeypatch.setitem(cli_module._COMMANDS, "rank", spy)
        assert main(["rank", "--in", t1_file]) == 0
        assert seen == [False]
        capsys.readouterr()


class TestAmalgamate:
    def test_unsat_exit_one(self, capsys, tmp_path, t1_file):
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(b_system_json()))
        code, payload = run(
            capsys, ["amalgamate", "--system", str(sys_path), "--diagrams", t1_file]
        )
        assert code == 1
        assert payload["status"] == "unsat" and payload["method"] == "search"
        assert len(payload["refutation"]) == 2
        assert payload["refutation"][0]["violating_subset"] == [1, 2]

    def test_ap_mode_identifies(self, capsys, tmp_path, t1_file):
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(b_system_json()))
        code, payload = run(
            capsys,
            ["amalgamate", "--system", str(sys_path), "--diagrams", t1_file, "--mode", "ap"],
        )
        assert code == 0
        assert payload["status"] == "identification"
        assert payload["identified"] == {"a1": 1, "a2": 2, "as": 1}

    def test_budget_exit_three(self, capsys, tmp_path):
        full = full_tree_set(t1_set().language, 3)
        ds_path = tmp_path / "full.json"
        ds_path.write_text(json.dumps(diagram_set_to_json(full)))
        data = b_system_json()
        data["c1"]["colors"]["[1]"] = [1, 0]
        data["c2"]["colors"]["[2]"] = [1, 0]
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(data))
        code, payload = run(
            capsys,
            [
                "amalgamate", "--system", str(sys_path), "--diagrams", str(ds_path),
                "--budget", "1",
            ],
        )
        assert code == 3 and payload["status"] == "budget-exhausted"

    def test_from_ap_mode(self, capsys, tmp_path):
        from chroma.diagrams import DiagramSet, Language

        lang = Language.of({1: 2, 2: 2}, repeat=True)
        ds = DiagramSet.of(
            lang, [(), (A,), (B,), (A, C), (A, RelSymbol(2, 1)), (B, C), (B, RelSymbol(2, 1))]
        )
        ds_path = tmp_path / "split.json"
        ds_path.write_text(json.dumps(diagram_set_to_json(ds)))
        data = {
            "x": [],
            "a1": 0,
            "a2": 1,
            "c1": {"universe": [0], "colors": {"[0]": [1, 0]}},
            "c2": {"universe": [1], "colors": {"[1]": [1, 1]}},
        }
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(data))
        code, payload = run(
            capsys,
            ["amalgamate", "--system", str(sys_path), "--diagrams", str(ds_path), "--mode", "from-ap"],
        )
        assert code == 0
        assert payload["method"] == "case1" and payload["status"] == "witness"

    @pytest.mark.parametrize("method", ["case2", "case3"])
    def test_from_ap_mode_later_cases(self, capsys, tmp_path, method):
        """The systems ``tests/test_amalgamation.py`` answers by cases 2 and 3, through the CLI.

        Each answer's bytes are pinned, and its witness is checked by ``member``.
        """
        from test_amalgamation import case3_system, coloring, deep_split_tree

        if method == "case2":
            c1 = coloring((0, 1), {(0,): A, (1,): A, (0, 1): C})
            c2 = coloring((0, 2), {(0,): A, (2,): A, (0, 2): C})
            ds, sys_ = deep_split_tree(), SpecialSystem((0,), 1, 2, c1, c2)
        else:
            ds, sys_ = case3_system()
        ds_path, sys_path, witness_path = (tmp_path / name for name in ("ds.json", "sys.json", "witness.json"))
        ds_path.write_text(json.dumps(diagram_set_to_json(ds)))
        sys_path.write_text(json.dumps(system_to_json(sys_)))
        argv = ["amalgamate", "--system", str(sys_path), "--diagrams", str(ds_path), "--mode", "from-ap"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["status"] == "witness" and payload["method"] == method
        assert hashlib.sha256(out.encode()).hexdigest() == FROM_AP_DIGESTS[method]
        witness_path.write_text(json.dumps(payload["witness"]))
        code, report = run(capsys, ["member", "--structure", str(witness_path), "--diagrams", str(ds_path)])
        assert code == 0 and report == {"ok": True, "violating_subset": None, "diagram": None}

    def test_quotient_mode(self, capsys, tmp_path, t1_file):
        data = {
            "x": [0],
            "a1": 1,
            "a2": 2,
            "c1": {
                "universe": [0, 1],
                "colors": {"[0]": [1, 0], "[1]": [1, 0], "[0,1]": [2, 0]},
            },
            "c2": {
                "universe": [0, 2],
                "colors": {"[0]": [1, 0], "[2]": [1, 0], "[0,2]": [2, 0]},
            },
            "wbar": [[1, 0], [2, 0]],
            "cstar": {"universe": [0], "colors": {"[0]": [1, 0]}},
        }
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(data))
        code, payload = run(
            capsys,
            ["amalgamate", "--system", str(sys_path), "--diagrams", t1_file, "--mode", "quotient"],
        )
        assert code == 0
        assert payload["method"] == "quotient"
        assert payload["witness"]["colors"]["[1,2]"] == [2, 0]
        assert payload["witness"]["colors"]["[0,1,2]"] == [3, 0]


class TestBuild:
    def test_mono(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"diagram": [[1, 0], [2, 0], [3, 0]], "n": 3}))
        code, payload = run(capsys, ["build", "mono", "--in", str(params)])
        assert code == 0
        assert payload["universe"] == [0, 1, 2]
        assert payload["colors"]["[0,1,2]"] == [3, 0]

    def test_pair_split(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(
            json.dumps(
                {
                    "m": 2,
                    "stem": [[1, 0]],
                    "pairs": [[[1, 0], [2, 0]], [[1, 0], [2, 1]]],
                }
            )
        )
        code, payload = run(capsys, ["build", "pair-split", "--in", str(params)])
        assert code == 0
        assert len(payload["universe"]) == 4

    def test_limit_sum(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(
            json.dumps(
                {
                    "components": [
                        structure_to_json(monochromatic_model((A, C, E), 3)),
                        structure_to_json(monochromatic_model((B,), 1)),
                    ]
                }
            )
        )
        code, payload = run(capsys, ["build", "limit-sum", "--in", str(params)])
        assert code == 0
        assert payload["universe"] == [0, 1, 2, 3]
        assert payload["colors"]["[3]"] == [1, 1]

    def test_k_split(self, capsys, tmp_path):
        comp = {
            "universe": [0, 1],
            "colors": {"[0]": [1, 0], "[1]": [1, 0], "[0,1]": [2, 0]},
        }
        comp_other = {
            "universe": [0, 1],
            "colors": {"[0]": [1, 0], "[1]": [1, 0], "[0,1]": [2, 1]},
        }
        params = tmp_path / "p.json"
        params.write_text(
            json.dumps(
                {"m": 2, "stem": [[1, 0], [2, 0]], "components": [comp, comp_other]}
            )
        )
        code, payload = run(capsys, ["build", "k-split", "--in", str(params)])
        assert code == 0
        assert payload["colors"]["[0,1]"] == [2, 0]
        assert payload["colors"]["[0,2,3]"] == [3, 0]

    def test_interval_split(self, capsys, tmp_path):
        unit = lambda pos, cid: {
            "universe": [pos],
            "colors": {f"[{pos}]": [1, cid]},
        }
        params = tmp_path / "p.json"
        params.write_text(
            json.dumps(
                {
                    "m": 2,
                    "blocks": [
                        {
                            "length": 1,
                            "pair": [[1, 0], [2, 0]],
                            "stem": [[1, 0], [2, 0]],
                            "components": [unit(0, 0), unit(0, 1)],
                        },
                        {
                            "length": 1,
                            "pair": [[1, 0], [2, 1]],
                            "stem": [[1, 0], [2, 1]],
                            "components": [unit(1, 0), unit(1, 1)],
                        },
                    ],
                }
            )
        )
        code, payload = run(capsys, ["build", "interval-split", "--in", str(params)])
        assert code == 0
        assert payload["colors"]["[0,2]"] == [2, 0]
        assert payload["colors"]["[0,1]"] == [2, 1]

    def test_bad_params_exit_two(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"m": 3, "stem": [[1, 0]], "pairs": []}))
        code = main(["build", "pair-split", "--in", str(params)])
        capsys.readouterr()
        assert code == 2


class TestSpectra:
    def test_exhaustive_exit_one_on_refutation(self, capsys, t1_file):
        code, payload = run(
            capsys, ["spectra", "--diagrams", t1_file, "--lambda-max", "1"]
        )
        assert code == 1
        assert payload["1"]["dap"] == "no"
        assert payload["1"]["ap"] == "no"
        assert payload["0"]["ap"] == "yes"
        cert = payload["1"]["dap_certificate"]
        assert cert["c1"]["colors"]["[1]"] == [1, 1]

    def test_sampled_deterministic(self, capsys, t1_file):
        argv = [
            "spectra", "--diagrams", t1_file, "--lambda-max", "1",
            "--mode", "sampled", "--seed", "9", "--trials", "20",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_negative_lambda_exit_two(self, capsys, t1_file):
        code = main(["spectra", "--diagrams", t1_file, "--lambda-max", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_negative_trials_exit_two(self, capsys, t1_file):
        argv = ["spectra", "--diagrams", t1_file, "--lambda-max", "1", "--mode", "sampled"]
        code = main([*argv, "--trials", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --trials must be at least 0\n"

    def test_usage_errors_are_input_errors(self, capsys, t1_file):
        for argv, message in [
            (["--lambda-max=x"], "argument --lambda-max: invalid int value: 'x'"),
            (["--lambda-max=1", "--mode=x"], "argument --mode: invalid choice: 'x'"),
            ([], "the following arguments are required: --lambda-max"),
        ]:
            code = main(["spectra", "--diagrams", t1_file, *argv])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


class TestWalphaVerify:
    def test_pass(self, capsys):
        code, payload = run(
            capsys,
            ["walpha-verify", "--alpha", "2", "--F", "0,1,2", "--max-arity", "3"],
        )
        assert code == 0 and payload["ok"] and payload["checked"] == 4

    def test_transfinite_alpha(self, capsys):
        code, payload = run(
            capsys,
            ["walpha-verify", "--alpha", "w*1+1", "--F", "0,1,w*1", "--max-arity", "4"],
        )
        assert code == 0 and payload["ok"]


class TestTreeSurgery:
    def test_quotient_command(self, capsys, t1_file):
        code, payload = run(capsys, ["quotient", "--in", t1_file, "--wbar", "[[1,0]]"])
        assert code == 0
        assert payload["arities"] == {"1": 2, "2": 1}
        assert [[1, 0], [2, 0]] in payload["members"]

    def test_prune_command(self, capsys, t1_file):
        code, payload = run(capsys, ["prune", "--in", t1_file, "--keep", "[[[1,0]]]"])
        assert code == 0
        assert [[1, 1]] not in payload["members"]
        assert [[1, 0]] in payload["members"]

    def test_round_trip_through_commands(self, capsys, tmp_path, t1_file):
        code, payload = run(capsys, ["prune", "--in", t1_file, "--keep", "[[]]"])
        assert code == 0
        again = tmp_path / "again.json"
        again.write_text(json.dumps(payload))
        code2, payload2 = run(capsys, ["prune", "--in", str(again), "--keep", "[[]]"])
        assert payload2 == payload


class TestDashLeadingFlagValues:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("prune", "--keep", "-Infinity"),
            ("prune", "--keep", "-1"),
            ("prune", "--keep", "-[]"),
            ("quotient", "--wbar", "-Infinity"),
            ("quotient", "--wbar", "--in"),
        ],
    )
    def test_spaced_value_reaches_the_command_like_the_joined_form(
        self, capsys, t1_file, command, flag, value
    ):
        results = []
        for tail in ([flag, value], [f"{flag}={value}"]):
            code = main([command, "--in", t1_file, *tail])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "expected one argument" not in err

    @pytest.mark.parametrize("command, flag", [("prune", "--keep"), ("quotient", "--wbar")])
    def test_trailing_flag_without_value_exits_two(self, capsys, t1_file, command, flag):
        code = main([command, "--in", t1_file, flag])
        assert code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestErrors:
    def test_malformed_json_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"arities": {')
        code = main(["rank", "--in", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err and "column" in err

    def test_missing_file_exit_two(self, capsys):
        code = main(["rank", "--in", "/nonexistent.json"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_unwritable_stdout_exit_two(self, t1_file, unbuffered):
        src = str(Path(chroma.__file__).parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "chroma.cli", "rank", "--in", t1_file],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stderr == "error: stdout: No space left on device\n"

    def test_invalid_diagram_set_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"arities": {"1": 2}, "members": [[[1, 0]]]}))
        code = main(["rank", "--in", str(bad)])
        capsys.readouterr()
        assert code == 2

    def test_zero_budget_exit_two(self, capsys, tmp_path, t1_file):
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(b_system_json()))
        code = main(
            ["amalgamate", "--system", str(sys_path), "--diagrams", t1_file, "--budget", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: budget must be at least 1\n"

    @pytest.mark.parametrize("flag", ["--budget", "--seed"])
    def test_flag_a_command_does_not_read_exit_two(self, capsys, t1_file, flag):
        code = main(["rank", "--in", t1_file, flag, "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {flag} 5\n"

    def test_output_file(self, tmp_path, t1_file, capsys):
        out = tmp_path / "out.json"
        code = main(["rank", "--in", t1_file, "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["ranks"]["[]"] == "3"

    def test_out_in_missing_directory_exit_two(self, tmp_path, t1_file, capsys):
        out = tmp_path / "missing" / "out.json"
        code = main(["rank", "--in", t1_file, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {out}: No such file or directory\n"

    def test_out_a_directory_exit_two_on_verdict_command(self, tmp_path, t1_file, capsys):
        # Without --out this scan refutes and exits 1; a failed write must not pass for a refutation.
        code = main(["spectra", "--diagrams", t1_file, "--lambda-max", "1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path}: Is a directory\n"


class TestMalformedInputExitTwo:
    """Valid JSON of the wrong shape is an input error, never a refutation."""

    def run_bad(self, capsys, tmp_path, argv, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        code = main([arg if arg != "@" else str(path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize(
        "structure",
        [
            {"universe": [0], "colors": {"[0]": 5}},
            {"universe": [0], "colors": {"[0]": [1]}},
            {"universe": [0], "colors": {"[0]": [1, 0, 7]}},
            {"universe": [0], "colors": {"0": [1, 0]}},
            [[0], {"[0]": [1, 0]}],
            {"universe": [0], "colors": {"[0]": "10"}},
        ],
        ids=[
            "color-not-a-pair",
            "color-too-short",
            "color-too-long",
            "key-not-a-list",
            "top-level-list",
            "color-a-string",
        ],
    )
    def test_member_structure(self, capsys, tmp_path, t1_file, structure):
        argv = ["member", "--structure", "@", "--diagrams", t1_file]
        self.run_bad(capsys, tmp_path, argv, "m.json", structure)

    @pytest.mark.parametrize(
        "argv, data, shape, entry",
        [
            (["member", "--structure", "@"], {"universe": [0], "colors": {"[0]": [1.5, 0]}},
             "a structure is", "1.5"),
            (["member", "--structure", "@"], {"universe": [0], "colors": {"[0]": ["1", "0"]}},
             "a structure is", "'1'"),
            (["member", "--structure", "@"], {"universe": [0.7], "colors": {"[0]": [1, 0]}},
             "a structure is", "0.7"),
            (["rank", "--in", "@"], {"arities": {"1": 2}, "members": [[], [[1.9, "1"]]]},
             "a diagram is", "1.9"),
            (["rank", "--in", "@"], {"arities": {"1": 2.5}, "members": [[]]},
             "a diagram set is", "2.5"),
        ],
        ids=["color-a-fraction", "color-strings", "point-a-fraction", "pair-a-fraction", "count-a-fraction"],
    )
    def test_entries_that_are_not_whole_numbers(
        self, capsys, tmp_path, t1_file, argv, data, shape, entry
    ):
        """``int`` reads 1.5 and "1" as 1; the readers refuse them as input errors."""
        if argv[0] == "member":
            argv = argv + ["--diagrams", t1_file]
        err = self.run_bad(capsys, tmp_path, argv, "in.json", data)
        assert f": {shape} " in err
        assert err.endswith(f"({entry} is not an integer)\n")

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (["amalgamate", "--system", "@"], {**b_system_json(), "x": [0.4]},
             "invalid system: 0.4"),
            (["amalgamate", "--system", "@"], {**b_system_json(), "a1": 1.5},
             "invalid system: 1.5"),
            (["amalgamate", "--system", "@"], {**b_system_json(), "a2": "2"},
             "invalid system: '2'"),
            (["build", "mono", "--in", "@"], {"diagram": [[1, 0], [2, 0]], "n": 1.5}, "1.5"),
            (["build", "mono", "--in", "@"], {"diagram": [[1, 0], [2, 0]], "n": 2, "universe": [0.5, 1]},
             "0.5"),
            (["build", "pair-split", "--in", "@"],
             {"m": "2", "stem": [[1, 0]], "pairs": [[[1, 0], [2, 0]], [[1, 0], [2, 1]]]}, "'2'"),
            (["build", "interval-split", "--in", "@"], {"m": 1, "blocks": [{
                "length": 1.5,
                "pair": [[1, 0], [2, 0]],
                "stem": [[1, 0], [2, 0]],
                "components": [
                    {"universe": [0], "colors": {"[0]": [1, 0]}},
                    {"universe": [0], "colors": {"[0]": [1, 1]}},
                ],
            }]}, "1.5"),
        ],
        ids=["system-x", "system-a1", "system-a2", "mono-n", "mono-universe", "pair-split-m", "interval-length"],
    )
    def test_system_fields_and_build_numbers_that_are_not_whole(
        self, capsys, tmp_path, t1_file, argv, data, message
    ):
        """``int`` reads 0.4, 1.5 and "2" as whole numbers; system and build readers refuse them."""
        if argv[0] == "amalgamate":
            argv = argv + ["--diagrams", t1_file]
        err = self.run_bad(capsys, tmp_path, argv, "in.json", data)
        assert err == f"error: {tmp_path / 'in.json'}: {message} is not an integer\n"

    def test_member_structure_key_nested_too_deeply(self, capsys, tmp_path, t1_file):
        structure = {"universe": [0], "colors": {"[" * 100_000: [1, 0]}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(structure))
        code = main(["member", "--structure", str(path), "--diagrams", t1_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "nested too deeply" in captured.err

    def test_build_pair_split_stem_not_a_diagram(self, capsys, tmp_path):
        params = {"m": 1, "stem": 5, "pairs": [[[1, 0], [2, 0]]]}
        self.run_bad(capsys, tmp_path, ["build", "pair-split", "--in", "@"], "p.json", params)

    def test_build_limit_sum_component_not_a_structure(self, capsys, tmp_path):
        params = {"components": [5]}
        self.run_bad(capsys, tmp_path, ["build", "limit-sum", "--in", "@"], "p.json", params)

    @pytest.mark.parametrize(
        "family",
        [
            {"arities": {"1": 1}, "members": [[], [[1]]]},
            {"members": [[]]},
            [{"1": 1}, [[]]],
            {"arities": {"1": 1}, "members": [[], ["10"]]},
        ],
        ids=["one-element-symbol", "no-arities", "top-level-list", "pair-a-string"],
    )
    def test_rank_diagram_set(self, capsys, tmp_path, family):
        self.run_bad(capsys, tmp_path, ["rank", "--in", "@"], "d.json", family)

    def test_amalgamate_system_top_level_list(self, capsys, tmp_path, t1_file):
        argv = ["amalgamate", "--system", "@", "--diagrams", t1_file]
        self.run_bad(capsys, tmp_path, argv, "sys.json", [b_system_json()])

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("pair-split", [1, [[1, 0], [2, 0]], [[[1, 0], [2, 0]]]]),
            ("pair-split", {"m": [1], "stem": [[1, 0], [2, 0]], "pairs": [[[1, 0], [2, 0]]]}),
            ("mono", [[[1, 0]], 1]),
            ("limit-sum", [{"universe": [0], "colors": {"[0]": [1, 0]}}]),
            ("interval-split", {"m": 4, "blocks": [5]}),
            ("interval-split", {"m": 2, "blocks": [{"length": 2, "pair": [], "stem": [], "components": []}]}),
        ],
        ids=[
            "pair-split-list",
            "pair-split-m-list",
            "mono-list",
            "limit-sum-list",
            "interval-block-int",
            "interval-pair-empty",
        ],
    )
    def test_build_parameters_of_the_wrong_shape(self, capsys, tmp_path, kind, params):
        self.run_bad(capsys, tmp_path, ["build", kind, "--in", "@"], "p.json", params)

    @pytest.mark.parametrize(
        "kind, params, position, arity",
        [
            ("mono", {"diagram": [[2, 0], [2, 0]], "n": 2}, 1, 2),
            ("pair-split", {"m": 2, "stem": [[1, 0]], "pairs": [[[1, 0], [2, 0]], [[1, 0], [3, 0]]]}, 2, 3),
            ("k-split", {"m": 1, "stem": [[1, 0], [3, 0]], "components": [
                {"universe": [0], "colors": {"[0]": [1, 0]}},
                {"universe": [0], "colors": {"[0]": [1, 1]}},
            ]}, 2, 3),
            ("interval-split", {"m": 1, "blocks": [{
                "length": 1,
                "pair": [[1, 0], [3, 0]],
                "stem": [[1, 0], [3, 0]],
                "components": [
                    {"universe": [0], "colors": {"[0]": [1, 0]}},
                    {"universe": [0], "colors": {"[0]": [1, 1]}},
                ],
            }]}, 2, 3),
        ],
        ids=["mono-diagram", "pair-split-pair", "k-split-stem", "interval-split-pair-and-stem"],
    )
    def test_build_diagram_arity_must_follow_position(self, capsys, tmp_path, kind, params, position, arity):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        code = main(["build", kind, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: {path}: arity mismatch at position {position}: symbol has arity {arity}\n"
        )

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("k-split", {"m": 10**30, "stem": [[1, 0], [2, 0]], "components": [
                {"universe": [0], "colors": {"[0]": [1, 0]}},
                {"universe": [0], "colors": {"[0]": [1, 1]}},
            ]}),
            ("interval-split", {"m": 10**30, "blocks": [{
                "length": 10**30,
                "pair": [[1, 0], [2, 0]],
                "stem": [[1, 0], [2, 0]],
                "components": [
                    {"universe": [0], "colors": {"[0]": [1, 0]}},
                    {"universe": [0], "colors": {"[0]": [1, 1]}},
                ],
            }]}),
        ],
        ids=["k-split-m", "interval-split-length"],
    )
    def test_build_huge_position_count(self, capsys, tmp_path, kind, params):
        self.run_bad(capsys, tmp_path, ["build", kind, "--in", "@"], "p.json", params)

    def test_amalgamate_quotient_cstar_not_an_object(self, capsys, tmp_path, t1_file):
        system = {**b_system_json(), "wbar": [[1, 0], [2, 0]], "cstar": [5]}
        argv = ["amalgamate", "--mode", "quotient", "--system", "@", "--diagrams", t1_file]
        self.run_bad(capsys, tmp_path, argv, "sys.json", system)

    def test_prune_keep_entry_not_a_diagram(self, capsys, t1_file):
        code = main(["prune", "--in", t1_file, "--keep", "[[[1,0]], 5]"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("error: ")

    @pytest.mark.parametrize("keep", ["5", "null", '"x"'])
    def test_prune_keep_not_a_list(self, capsys, t1_file, keep):
        code = main(["prune", "--in", t1_file, "--keep", keep])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --keep must be a JSON list of diagrams\n"

    @pytest.mark.parametrize(
        "argv, name, data",
        [
            (["rank", "--in", "@"], "d.json", {"arities": {"1": float("inf")}, "members": [[]]}),
            (["rank", "--in", "@"], "d.json", {"arities": {"1": 1}, "members": [[], [[1, float("inf")]]]}),
            (["member", "--structure", "@", "--diagrams", "T1"], "m.json",
             {"universe": [float("inf")], "colors": {}}),
            (["member", "--structure", "@", "--diagrams", "T1"], "m.json",
             {"universe": [0], "colors": {"[0]": [1, float("-inf")]}}),
            (["build", "pair-split", "--in", "@"], "p.json",
             {"m": float("inf"), "stem": [[1, 0], [2, 0]], "pairs": [[[1, 0], [2, 0]]]}),
            (["amalgamate", "--system", "@", "--diagrams", "T1"], "sys.json",
             {**b_system_json(), "a1": float("inf")}),
        ],
        ids=["language", "diagram", "universe", "color", "build", "system"],
    )
    def test_infinity_where_an_int_is_read(self, capsys, tmp_path, t1_file, argv, name, data):
        argv = [t1_file if arg == "T1" else arg for arg in argv]
        self.run_bad(capsys, tmp_path, argv, name, data)

    def test_infinity_in_the_quotient_stem(self, capsys, t1_file):
        code = main(["quotient", "--in", t1_file, "--wbar", "[[1,Infinity]]"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: cannot convert float infinity to integer\n"


class TestDeeplyNestedInputExitTwo:
    """JSON nested past the parser's recursion limit is an input error, not a traceback."""

    DEEP = "[" * 100_000

    def assert_input_error(self, capsys, code):
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "nested too deeply" in captured.err

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        self.assert_input_error(capsys, main(["rank", "--in", str(path)]))

    def test_prune_keep(self, capsys, t1_file):
        self.assert_input_error(capsys, main(["prune", "--in", t1_file, "--keep", self.DEEP]))

    def test_quotient_wbar(self, capsys, t1_file):
        self.assert_input_error(capsys, main(["quotient", "--in", t1_file, "--wbar", self.DEEP]))

    DEEP_ORDINAL = "w^(" * 3000 + "1" + ")" * 3000

    def test_walpha_alpha(self, capsys):
        argv = ["walpha-verify", "--alpha", self.DEEP_ORDINAL, "--F", "0,1", "--max-arity", "2"]
        self.assert_input_error(capsys, main(argv))

    def test_walpha_indices(self, capsys):
        argv = ["walpha-verify", "--alpha", "2", "--F", f"0,{self.DEEP_ORDINAL}", "--max-arity", "2"]
        self.assert_input_error(capsys, main(argv))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="needs the integer digit limit")
class TestUnreadableJsonExitTwo:
    """JSON that Python cannot read (an integer past its digit limit, text that is not UTF-8) is an input error."""

    DIGITS = "9" * 5000
    FILES = {
        "digits": f'{{"n": {DIGITS}}}'.encode(),
        "not-utf8": b"\xff\xfe{}",
    }

    def assert_invalid_json(self, capsys, argv, source):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {source}: invalid JSON: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("content", sorted(FILES))
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--in", "@"],
            ["member", "--structure", "@", "--diagrams", "T1"],
            ["member", "--structure", "POINT", "--diagrams", "@"],
            ["amalgamate", "--system", "@", "--diagrams", "T1"],
            ["amalgamate", "--system", "SYSTEM", "--diagrams", "@"],
            ["build", "mono", "--in", "@"],
            ["spectra", "--diagrams", "@", "--lambda-max", "1"],
            ["quotient", "--in", "@", "--wbar", "[[1,0]]"],
            ["prune", "--in", "@", "--keep", "[]"],
        ],
        ids=lambda argv: "-".join(argv[: argv.index("@")]).replace("--", ""),
    )
    def test_input_file(self, capsys, tmp_path, t1_file, argv, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(self.FILES[content])
        (tmp_path / "point.json").write_text(json.dumps({"universe": [0], "colors": {"[0]": [1, 0]}}))
        (tmp_path / "system.json").write_text(json.dumps(b_system_json()))
        files = {"@": bad, "T1": t1_file, "POINT": tmp_path / "point.json", "SYSTEM": tmp_path / "system.json"}
        argv = [str(files.get(arg, arg)) for arg in argv]
        self.assert_invalid_json(capsys, argv, bad)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("prune", "--keep", f"[[[1,{DIGITS}]]]"), ("quotient", "--wbar", f"[[1,{DIGITS}]]")],
        ids=["prune-keep", "quotient-wbar"],
    )
    def test_flag(self, capsys, t1_file, command, flag, value):
        self.assert_invalid_json(capsys, [command, "--in", t1_file, flag, value], flag)


class TestSystemJson:
    def test_round_trip(self):
        sys_ = system_from_json(b_system_json())
        assert system_from_json(system_to_json(sys_)) == sys_
