"""Run the benchmark's timed child processes from a small process.

A child's peak RSS as `wait4` reports it also counts the memory of the
process it was forked from, up to its exec. The benchmark process holds
numpy and the library, so it starts this launcher while it is still small
and has it spawn every timed child; the peak RSS is then the child's own.

Protocol: one JSON argv list per stdin line, one JSON `Child` per stdout
line. The launcher exits when its stdin closes. It imports only the standard
library, to stay small.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 120.0


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


def run_child(args: list[str], env: dict | None = None) -> Child:
    """Run to completion in the checkout root; a child still running after
    CHILD_TIMEOUT_S is killed. Reports wall time and peak RSS (wait4)."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    out, err = (b"".join(chunks[fd]).decode() for fd in (out_fd, err_fd))
    return Child(proc.returncode, out, err, wall, usage.ru_maxrss / 1024)


class Launcher:
    """Client side: start before importing anything large."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)

    def run(self, args: list[str]) -> Child:
        self.proc.stdin.write(json.dumps(args) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with status {self.proc.wait()}")
        return Child(**json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> None:
    for line in sys.stdin:
        child = run_child(json.loads(line))
        sys.stdout.write(json.dumps(asdict(child)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
