#!/usr/bin/env python3
"""Record the output digests that pinned calls must reproduce.

    python3 bench/record_digests.py

Runs every digest-checked call of every fixture variant through the CLI
and rewrites ``bench/digests.json``. Run it only at a commit whose outputs
are the reference: the benchmark then fails any later commit whose output
for these calls differs by a single byte.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import fixtures
import oracle
from run import BENCH, Cli


def main() -> int:
    digests = {}
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=BENCH / ".work"))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with Cli() as cli:
            for workload in ("models", "ranks"):
                for variant in range(fixtures.VARIANTS):
                    for op in fixtures.generate(workload, variant, work):
                        if "digest" not in op.ctx:
                            continue
                        out = f"out/{op.label}.json"
                        _, code, _ = cli.call(op.argv, out)
                        if code != 0:
                            print(f"{op.ctx['digest']}: exit {code}", file=sys.stderr)
                            return 1
                        digests[op.ctx["digest"]] = oracle.digest(Path(out).read_bytes())
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0

if __name__ == "__main__":
    sys.exit(main())
