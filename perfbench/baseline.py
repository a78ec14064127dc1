#!/usr/bin/env python3
"""The ROADMAP baseline lines, timed through the library with median and IQR.

    python3 perfbench/baseline.py [--repeat 10]

Times the three kernel loops of ``benchmarks/bench_kernels.py`` on the same
inputs, but the distribution line calls ``sim.tableau_distribution`` itself
rather than a copy of its enumerator, plus the two CLI wall times the
ROADMAP quotes. Uses the active kernel backend only.
"""

import argparse
import statistics
import sys
import time

import run
from launcher import run_child

ROADMAP = {  # the ranges quoted in ROADMAP.md, pure backend
    "C4 sampling, 4096 shots": "478-623 ms",
    "C4 sweep, weights 1..5": "141-178 ms",
    "20-circuit distribution": "8-11 ms",
    "qgqec run --case c4 --shots 1024": "420 ms",
    "import qgqec.cli": "340 ms",
}


def timed(fn, repeat):
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=10)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from qgqec import aqecc, experiments, sim
    from qgqec.backend import BACKEND_NAME, kernels
    from qgqec.cases import CaseId

    circuit = experiments.build_case_circuit(CaseId.C4, "aqecc", (0, 3, 11))
    ops = sim._clifford_ops(circuit)
    codewords = aqecc.build_qc_code(CaseId.C4).codewords()
    circuits = [sim.random_clifford_circuit(8, 40, seed=1000 + i) for i in range(20)]
    env = run.child_env()

    def cli(*argv):
        def call():
            child = run_child([sys.executable, *argv], env)
            if child.code != 0:
                raise RuntimeError(child.stderr)
        return call

    lines = {
        "C4 sampling, 4096 shots": lambda: kernels.sample_shots(29, ops, 4096, 42),
        "C4 sweep, weights 1..5": lambda: [kernels.sweep_weight(29, codewords, w) for w in range(1, 6)],
        "20-circuit distribution": lambda: [sim.tableau_distribution(c) for c in circuits],
        "qgqec run --case c4 --shots 1024": cli("-m", "qgqec.cli", "run", "--case", "c4", "--shots", "1024"),
        "import qgqec.cli": cli("-c", "import qgqec.cli"),
    }
    print(f"backend {BACKEND_NAME}, {args.repeat} repeats; median [q1, q3] in ms")
    for name, fn in lines.items():
        fn()  # warm-up
        q1, q2, q3 = (v * 1e3 for v in statistics.quantiles(timed(fn, args.repeat), n=4))
        print(f"  {name:34s} {q2:9.2f} [{q1:.2f}, {q3:.2f}]   ROADMAP {ROADMAP[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
