"""Start CLI processes on request; report wall time, exit code and peak RSS.

A child's ``ru_maxrss`` starts from the resident size of the process that
spawned it, so the CLI is started from this small process, never from the
benchmark process that holds fixtures and outputs. Requests and replies
are JSON lines on stdin and stdout; the process ends when stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time


def run(argv: list[str], out_path: str, timeout: float) -> dict:
    """One process with stdout to ``out_path`` and stderr beside it; killed after ``timeout`` seconds."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, out_path + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "code": os.waitstatus_to_exitcode(status) if ready else None,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        os.chdir(req["cwd"])
        reply = run(req["argv"], req["out"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
