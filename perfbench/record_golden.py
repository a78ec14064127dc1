#!/usr/bin/env python3
"""Record golden.json: the sha256 of the stdout of every command the
benchmark issues at its default seed, for the first rounds of each workload,
in normal and --quick sizes and at 1 and 2 sweep threads.

    python3 perfbench/record_golden.py

Run it only on a commit whose CLI output is known to be right; the benchmark
then fails any later commit whose output for these commands differs.
"""

import json
import sys

import run
from launcher import run_child

ROUNDS = 16


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    env = run.child_env()
    digests = {}
    for name, make in workloads.WORKLOADS.items():
        for quick in (False, True):
            for threads in (1, 2):
                for rnd in range(ROUNDS):
                    for cmd in make(run.DEFAULT_SEED, rnd, quick, threads):
                        if cmd.key in digests:
                            continue
                        child = run_child([sys.executable, "-m", "qgqec.cli", *cmd.argv], env)
                        problems = cmd.check(child.stdout)
                        if child.code != 0 or problems:
                            print(f"refusing to record `qgqec {cmd.key}`: exit {child.code}, "
                                  f"{problems}", file=sys.stderr)
                            return 1
                        digests[cmd.key] = run.sha256(child.stdout)
    payload = {"seed": run.DEFAULT_SEED, "rounds": ROUNDS, "digests": digests}
    (run.HERE / "golden.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
