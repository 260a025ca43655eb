"""Tests of the benchmark itself: checker, fixtures and tracing.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import fixtures
import oracle
import run
import tracing

sys.path.insert(0, str(run.SRC))
from chroma.cli import main  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _call(op) -> tuple[int, bytes]:
    """Run one fixture call in-process, from the fixture directory."""
    out = Path(f"out/{op.label}.json")
    code = main([*op.argv, "--out", str(out)])
    return code, out.read_bytes()


def _edit(out: bytes, change) -> bytes:
    data = json.loads(out)
    change(data)
    return json.dumps(data).encode()


@pytest.fixture
def exhaustive(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = {op.label: op for op in fixtures.generate("spectra-exhaustive", 5, tmp_path)}
    return ops, oracle.Checker(tmp_path, {})


def test_checker_rejects_flipped_verdict(exhaustive):
    ops, checker = exhaustive
    for label in ("pos0", "ref0"):
        code, out = _call(ops[label])
        assert checker.check(ops[label], code, out) is None

        def flip(data):
            entry = data["1"]
            entry["dap"] = {"yes": "no", "no": "yes"}[entry["dap"]]

        assert checker.check(ops[label], code, _edit(out, flip)) is not None


def test_checker_confirms_refutations_independently(exhaustive):
    ops, checker = exhaustive
    op = ops["ref2"]
    code, out = _call(op)
    assert code == 1 and checker.check(op, code, out) is None
    data = json.loads(out)

    def amalgamable(data):
        # Base points share one head and both fresh points take the other: no
        # triple is monochromatic and the family allows every pair, so this
        # system always has an amalgam.
        members, _ = oracle.parse_family(json.loads(Path(op.ctx["family"]).read_text()))
        heads = sorted(w[0] for w in members if len(w) == 1)
        cert = data["2"]["dap_certificate"]
        x = tuple(cert["x"])
        for key, point in (("c1", cert["a1"]), ("c2", cert["a2"])):
            colors = {s: (len(s), 0) for s in oracle.all_subsets(x + (point,))}
            colors.update({(p,): heads[0] for p in x})
            colors[(point,)] = heads[1]
            cert[key] = fixtures.structure_json(x + (point,), colors)

    assert data["2"]["dap"] == "no"
    assert "amalgam" in checker.check(op, code, _edit(out, amalgamable))


def test_checker_rejects_corrupted_rank(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = next(op for op in fixtures.generate("ranks", 0, tmp_path) if op.label == "rank_tree_a")
    code, out = _call(op)

    def corrupt(data):
        key = next(k for k, v in data["ranks"].items() if v == "2")
        data["ranks"][key] = "3"

    bad = _edit(out, corrupt)
    # Pin both outputs so that only the bottom-up oracle can tell them apart.
    for pinned in (out, bad):
        checker = oracle.Checker(tmp_path, {op.ctx["digest"]: oracle.digest(pinned)})
        assert (checker.check(op, code, pinned) is None) == (pinned is out)
    unpinned = oracle.Checker(tmp_path, {op.ctx["digest"]: oracle.digest(out)})
    assert "digest" in unpinned.check(op, code, bad)


def test_checker_accepts_amalgams_in_every_mode(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = [op for op in fixtures.generate("models", 0, tmp_path) if op.kind == "amalgamate"]
    checker = oracle.Checker(tmp_path, {})
    for op in ops:
        code, out = _call(op)
        assert checker.check(op, code, out) is None, op.label

        def recolor_point(data):
            key = oracle.subset_key((data["witness"]["universe"][0],))
            data["witness"]["colors"][key][1] ^= 1

        assert checker.check(op, code, _edit(out, recolor_point)) is not None


def test_checker_rejects_witness_outside_the_class(tmp_path):
    a, c, d = [1, 0], [2, 0], [2, 1]
    (tmp_path / "family.json").write_text(json.dumps({"arities": {"1": 1, "2": 2}, "members": [[], [a], [a, c]]}))
    side = {"x": [], "a1": 0, "a2": 1}
    side["c1"] = {"universe": [0], "colors": {"[0]": a}}
    side["c2"] = {"universe": [1], "colors": {"[1]": a}}
    (tmp_path / "system.json").write_text(json.dumps(side))
    op = fixtures.Op("amalgam", (), "amalgamate", {"system": "system.json", "family": "family.json"})
    checker = oracle.Checker(tmp_path, {})
    for pair, verdict in ((c, None), (d, "witness leaves the class")):
        witness = {"universe": [0, 1], "colors": {"[0]": a, "[1]": a, "[0,1]": pair}}
        out = json.dumps({"status": "witness", "witness": witness, "nodes": 1}).encode()
        assert checker.check(op, 0, out) == verdict


@pytest.mark.parametrize("workload", fixtures.WORKLOADS)
def test_fixtures_are_byte_stable(tmp_path, workload):
    listing = []
    for copy, seed in (("a", 17), ("b", 17), ("c", 18)):
        ops = fixtures.generate(workload, seed, tmp_path / copy)
        files = sorted(p.relative_to(tmp_path / copy) for p in (tmp_path / copy).rglob("*") if p.is_file())
        listing.append((ops, {f: (tmp_path / copy / f).read_bytes() for f in files}))
    assert listing[0] == listing[1]
    assert listing[0] != listing[2]


def test_traced_self_times_sum_to_the_traced_wall(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = fixtures.generate("spectra-exhaustive", 3, tmp_path)[-4:]
    tracer = tracing.Tracer()
    with tracer.install():
        wall, failed, op_walls = run._in_process_pass(main, ops, oracle.Checker(tmp_path, {}), tracer)
    assert failed == 0
    assert tracer.calls["amalgamation.CompletionSearch"] > 0
    for label, op_wall in op_walls.items():
        assert tracer.self_by_op[label] == pytest.approx(op_wall, rel=0.02, abs=0.002)
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=0.02)
    assert {s[2] for s in tracer.spans} == set(op_walls)
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[3] for s in roots] == [tracing.ROOT_SPAN] * len(ops)


def test_tracing_restores_the_library():
    from chroma import amalgamation, cli, structures

    before = (cli.in_class, amalgamation.in_class, structures.in_class, amalgamation.CompletionSearch.solutions)
    with tracing.Tracer().install():
        assert cli.in_class is amalgamation.in_class is structures.in_class
        assert cli.in_class is not before[0]
    assert (cli.in_class, amalgamation.in_class, structures.in_class,
            amalgamation.CompletionSearch.solutions) == before


def test_benchmark_json_matches_the_metrics_reported():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    reported = {name: unit for name, unit, *_ in tracing.LAYER_METRICS + tracing.RUNNER_METRICS}
    assert per_layer == reported
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == dict(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(fixtures.WORKLOADS)


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90)
    value, p = run.tail(values[:37])
    assert sum(v > value for v in values[:37]) >= run.TAIL_SAMPLES
