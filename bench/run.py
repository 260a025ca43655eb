#!/usr/bin/env python3
"""Benchmark of the chroma CLI: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload models --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the CLI is started as
``python -m chroma.cli`` with ``src`` on the path, so nothing is installed.
One client calls the CLI in a closed loop, one process at a time, and
repeats the workload's fixed call list until ``--seconds`` have passed.
Every output is checked (see ``oracle.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
calls in-process through ``chroma.cli.main``, alternating untraced and
traced passes, and prints the per-layer metrics (see ``tracing.py``).
``--workload all`` runs every workload in turn. The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import fixtures  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

CALL_TIMEOUT_S = 60
SETUP_REPEATS = 3
STARTUP_CALLS = 15
TAIL_SAMPLES = 10  # calls that must lie beyond the reported tail percentile

END_TO_END = [
    ("wall_s", "s"),
    ("call_p50_s", "s"),
    ("call_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Cli:
    """The chroma CLI, started one process at a time through ``spawner.py``."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        self._spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def call(self, argv, out_path: str) -> tuple[float, int | None, float]:
        """Wall seconds, exit code (None on timeout) and peak RSS in MB of one call."""
        request = {
            "argv": [sys.executable, "-m", "chroma.cli", *argv],
            "out": out_path,
            "cwd": os.getcwd(),
            "timeout": CALL_TIMEOUT_S,
        }
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise BenchError("the spawner process died")
        reply = json.loads(line)
        return reply["wall"], reply["code"], reply["rss_mb"]

    def close(self) -> None:
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    def __enter__(self) -> "Cli":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_SAMPLES values beyond it (nearest rank)."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return max(values), 100
    p = math.floor(100 * (n - TAIL_SAMPLES) / n)
    return sorted(values)[max(math.ceil(p * n / 100) - 1, 0)], p


def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


def _report_failure(op, reason: str) -> None:
    print(f"FAIL {op.label}: {reason}", file=sys.stderr)


def setup(workload: str, seed: int, work: Path, cli: Cli) -> tuple[list, float]:
    """Generate the fixtures and make the untimed warm-up call, several times; median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = fixtures.generate(workload, seed, work)
        _, code, _ = cli.call(fixtures.WARMUP_ARGV, "out/warmup.json")
        times.append(time.perf_counter() - start)
        if code != 0:
            raise BenchError(f"warm-up call failed with exit {code}")
    return ops, statistics.median(times)


def measure(workload: str, seed: int, seconds: float, work: Path, cli: Cli) -> dict:
    ops, setup_s = setup(workload, seed, work, cli)
    checker = oracle.Checker(work, load_digests())
    walls, passes, failed, peak = [], [], 0, 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        pass_wall = 0.0
        for op in ops:
            out = f"out/{op.label}.json"
            wall, code, rss = cli.call(op.argv, out)
            reason = "timeout" if code is None else checker.check(op, code, Path(out).read_bytes())
            if reason:
                failed += 1
                stderr = Path(out + ".err").read_text().strip().splitlines()
                _report_failure(op, reason + (f" (stderr: {stderr[-1]})" if stderr else ""))
            walls.append(wall)
            pass_wall += wall
            peak = max(peak, rss)
        passes.append(pass_wall)
    tail_s, tail_p = tail(walls)
    metrics = {
        "wall_s": statistics.median(passes),
        "call_p50_s": statistics.median(walls),
        "call_tail_s": tail_s,
        "peak_rss_mb": peak,
        "setup_s": setup_s,
    }
    notes = [
        f"closed loop, 1 client: {len(passes)} passes of {len(ops)} calls",
        f"call_tail_s is p{tail_p} of {len(walls)} calls",
        f"fail_ratio {failed / len(walls):.4f} ({failed} of {len(walls)} calls)",
    ]
    return {
        "attempted": len(walls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        "notes": notes,
    }


def _in_process_pass(main, ops, checker, tracer=None) -> tuple[float, int, dict]:
    """Every call through ``chroma.cli.main``; total wall, failures, and per-op wall."""
    failed, op_walls = 0, {}
    for op in ops:
        out = Path(f"out/{op.label}.json")
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(out)]
        if tracer is not None:
            tracer.op = op.label
        start = time.perf_counter()
        if tracer is not None:
            tracer.enter(tracing.ROOT_SPAN)
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash is a failed call, and the run goes on
            code = f"{type(e).__name__}: {e}"
        finally:
            if tracer is not None:
                tracer.exit()
        op_walls[op.label] = time.perf_counter() - start
        if isinstance(code, int):
            reason = checker.check(op, code, out.read_bytes() if out.exists() else b"")
        else:
            reason = f"raised {code}"
        if reason:
            failed += 1
            _report_failure(op, reason)
    return sum(op_walls.values()), failed, op_walls


def measure_traced(workload: str, seed: int, seconds: float, work: Path, cli: Cli) -> dict:
    ops, _ = setup(workload, seed, work, cli)
    startup = statistics.median(cli.call(fixtures.WARMUP_ARGV, "out/warmup.json")[0] for _ in range(STARTUP_CALLS))
    sys.path.insert(0, str(SRC))
    from chroma.cli import main

    checker = oracle.Checker(work, load_digests())
    untraced, traced, per_pass, failed, attempted = [], [], [], 0, 0
    first = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, bad, _ = _in_process_pass(main, ops, checker)
        untraced.append(wall)
        tracer = tracing.Tracer(keep_spans=first is None)
        with tracer.install():
            wall, bad2, op_walls = _in_process_pass(main, ops, checker, tracer)
        traced.append(wall)
        per_pass.append(tracing.pass_metrics(tracer))
        failed += bad + bad2
        attempted += 2 * len(ops)
        if first is None:
            first = (tracer, op_walls)
    values = {name: statistics.median(p[name] for p in per_pass) for name, _, _, _ in tracing.LAYER_METRICS}
    values["cli.startup_s"] = startup
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    tracer, op_walls = first
    out = BENCH / ".traces" / f"{workload}-seed{seed}.json.gz"
    tracer.write(out, {"workload": workload, "seed": seed, "op_wall_s": op_walls})
    units = {name: unit for name, unit, _ in tracing.RUNNER_METRICS}
    units.update({name: unit for name, unit, _, _ in tracing.LAYER_METRICS})
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "notes": [
            f"{len(traced)} traced and {len(untraced)} untraced in-process passes of {len(ops)} calls",
            f"spans and counters of the first traced pass written to {out.relative_to(ROOT)}",
        ],
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / ".work"))
    cwd = os.getcwd()
    os.chdir(work)  # fixture paths in the call lists are relative to the fixture directory
    try:
        with Cli() as cli:
            return (measure_traced if traced else measure)(workload, seed, seconds, work, cli)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*fixtures.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chroma" / "cli.py").is_file():
        print(f"error: no chroma sources under {SRC}", file=sys.stderr)
        return 2
    workloads = fixtures.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(f"== {workload} (seed {args.seed}, trace {args.trace})")
            for note in result.pop("notes"):
                print(f"   {note}")
            for name, m in result["metrics"].items():
                print(f"   {name:52s} {m['value']:.6g} {m['unit']}")
            result = {"correct": result["failed"] == 0, **result}
            print(json.dumps(result, sort_keys=False), flush=True)
    except (BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
