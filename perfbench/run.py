#!/usr/bin/env python3
"""qgqec benchmark: end-to-end metrics of the CLI and library, or per-layer
metrics from a traced in-process run.

    python3 perfbench/run.py --workload run-shots --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): run-shots, sweep-decode, crosscheck. Each is a
closed loop: one command at a time, in rounds whose inputs come from --seed
and the round number, until --seconds have passed (at least three rounds).

--trace 0 runs every command through the ``qgqec`` CLI in a subprocess and
through the library in-process, with tracing off, and reports setup_s,
cli_wall_s, lib_items_per_s, peak_rss_mb and ok_frac. --trace 1 runs the
library with spans around the public calls of each module and reports the
per-layer metrics listed in BENCHMARK.json; it also runs every other
workload once, so that every per-layer metric is measured.

Every output is checked: the command's invariants, the recorded sha256 in
golden.json when there is one (the default seed), and equality with every
earlier output of the same command, CLI or library. The last stdout line is
one JSON object with correct, attempted, failed and metrics; the full record
and the spans go to .perfbench/ in the checkout. --quick makes the inputs
small and runs one round, for the benchmark's own tests.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no qgqec sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from importlib import metadata
from pathlib import Path

from launcher import Launcher
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
MIN_ROUNDS = 3
SETUP_SAMPLES = 7


# -- subprocesses -----------------------------------------------------------


def child_env() -> dict:
    """The environment of every child: this checkout's sources first, and no
    QGQEC_SEED, so that only explicit flags reach the program."""
    env = dict(os.environ)
    env.pop("QGQEC_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- output checks ----------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts attempted and failed operations and keeps the failures."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def verify(self, cmd, source: str, stdout: str, problems=()) -> None:
        problems = list(problems) + cmd.check(stdout)
        digest = sha256(stdout)
        recorded = self.golden.get(cmd.key)
        if recorded is not None and digest != recorded:
            problems.append(f"sha256 {digest} differs from the recorded {recorded}")
        if digest != self.seen.setdefault(cmd.key, digest):
            problems.append("differs from an earlier output of the same command")
        self.record(cmd, source, problems)

    def record(self, cmd, source: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"command": cmd.key, "source": source, "problems": problems})
            print(f"perfbench: FAILED {source} `qgqec {cmd.key}`: " + "; ".join(problems),
                  file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- environment stamp ------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qgqec").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp() -> dict:
    import numpy
    from qgqec.backend import BACKEND_NAME, available_backends

    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": click_version,
        "backend": BACKEND_NAME,
        "available_backends": available_backends(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# -- the benchmark ----------------------------------------------------------


class Bench:
    def __init__(self, args, workloads, declared: dict[str, str], launcher: Launcher):
        self.args = args
        self.launcher = launcher
        self.wl = workloads
        self.declared = declared  # metric name -> unit
        # Threads never exceed the cores this process may use, nor two.
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.min_rounds = 1 if args.quick else MIN_ROUNDS
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        self.checker = Checker(golden["digests"])

    def commands(self, rnd: int, workload: str | None = None, threads: int | None = None):
        make = self.wl.WORKLOADS[workload or self.args.workload]
        return make(self.args.seed, rnd, self.args.quick, threads or self.threads)

    def import_s(self) -> float:
        """Wall time of a fresh interpreter that imports qgqec.cli and exits."""
        child = self.launcher.run([sys.executable, "-c", "import qgqec.cli"])
        if child.code != 0:
            raise RuntimeError(f"importing qgqec.cli failed: {child.stderr}")
        return child.wall_s

    def cli_pass(self, commands) -> tuple[float, float]:
        """(summed wall seconds, largest child peak RSS in MB)."""
        wall = rss = 0.0
        for cmd in commands:
            child = self.launcher.run([sys.executable, "-m", "qgqec.cli", *cmd.argv])
            problems = [] if child.code == 0 else [
                f"exit code {child.code}: {child.stderr.strip()[-400:]}"]
            self.checker.verify(cmd, "cli", child.stdout, problems)
            wall += child.wall_s
            rss = max(rss, child.peak_rss_mb)
        return wall, rss

    def lib_pass(self, commands, source: str, tracer=None) -> float:
        """Run the commands in-process; seconds spent, checks excluded."""
        results = []
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.patched(self.wl.trace_targets()))
                stack.enter_context(tracer.span("bench.pass"))
            start = time.perf_counter()
            for cmd in commands:
                if tracer is not None:
                    tracer.tag = cmd.tag
                try:
                    with tracer.span("bench.command") if tracer else nullcontext():
                        results.append((cmd.call(), None))
                except Exception:
                    results.append((None, traceback.format_exc()))
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.tag = None
        for cmd, (stdout, error) in zip(commands, results):
            if error is None:
                self.checker.verify(cmd, source, stdout)
            else:
                self.checker.record(cmd, source, [error])
        return elapsed

    def _rounds(self):
        deadline = time.perf_counter() + self.args.seconds
        rnd = 0
        while rnd < self.min_rounds or time.perf_counter() < deadline:
            yield rnd
            rnd += 1

    def end_to_end(self) -> tuple[dict, dict]:
        self.import_s()  # fills bytecode caches
        setup = [self.import_s() for _ in range(1 if self.args.quick else SETUP_SAMPLES)]
        self.lib_pass(self.commands(0), "lib-warmup")
        rounds = []
        for rnd in self._rounds():
            cmds = self.commands(rnd)
            wall, rss = self.cli_pass(cmds)
            lib_s = self.lib_pass(cmds, "lib")
            rounds.append({"cli_wall_s": wall, "peak_rss_mb": rss, "lib_s": lib_s,
                           "items": sum(c.items for c in cmds)})
        # Times are averaged over the run, not taken as medians: on a shared
        # host the processor can alternate between a fast and a slow state
        # every few tens of seconds, and a median jumps between the two where
        # a mean moves smoothly (NOTES.md, "Steadiness").
        metrics = {
            "setup_s": statistics.median(setup),
            "cli_wall_s": statistics.fmean(r["cli_wall_s"] for r in rounds),
            "lib_items_per_s": sum(r["items"] for r in rounds) / sum(r["lib_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "ok_frac": 1.0 - self.checker.failed / self.checker.attempted,
        }
        return metrics, {"setup_s": setup, "rounds": rounds}

    def layers(self) -> tuple[dict, dict]:
        workload = self.args.workload
        self.import_s()  # fills bytecode caches
        tracer = Tracer()
        metrics = {}
        modules = {}
        for other in self.wl.WORKLOADS:
            if other != workload:
                cmds = self.commands(0, other, threads=1)
                first = len(tracer.spans)
                self.lib_pass(cmds, f"traced-{other}", tracer)
                metrics.update(self.wl.span_metrics(other, tracer.spans[first:]))
                metrics.update(self.wl.probe_metrics(other, cmds, self.threads, self.args.quick))
                modules[other] = self.wl.module_self_times(tracer.spans[first:])
        self.lib_pass(self.commands(0), "lib-warmup")
        rounds = []
        for rnd in self._rounds():
            # A traced pass is single-threaded so that its spans nest.
            traced_cmds, cmds = self.commands(rnd, threads=1), self.commands(rnd)
            first = len(tracer.spans)
            # Alternate which pass goes first, so that warm-up and drift do
            # not bias the overhead either way.
            if rnd % 2:
                untraced_s = self.lib_pass(traced_cmds, "lib")
            traced_s = self.lib_pass(traced_cmds, "traced", tracer)
            spans = tracer.spans[first:]
            if not rnd % 2:
                untraced_s = self.lib_pass(traced_cmds, "lib")
            same = [c.key for c in cmds] == [c.key for c in traced_cmds]
            lib_s = untraced_s if same else self.lib_pass(cmds, "lib")
            setup = self.import_s()  # next to the CLI pass it is subtracted from
            cli_wall, _ = self.cli_pass(cmds)
            rounds.append({
                **self.wl.span_metrics(workload, spans),
                **self.wl.probe_metrics(workload, traced_cmds, self.threads, self.args.quick),
                "cli.self_s": cli_wall - len(cmds) * setup - lib_s,
                "trace.overhead_s": traced_s - untraced_s,
                "modules": self.wl.module_self_times(spans),
            })
        for key in rounds[0]:
            if key != "modules":
                metrics[key] = statistics.median(r[key] for r in rounds)
        modules[workload] = {
            m: statistics.median(r["modules"][m] for r in rounds) for m in rounds[0]["modules"]}
        tracer.write_jsonl(OUT_DIR / f"{workload}-spans.jsonl")
        return metrics, {"module_self_s": modules, "rounds": rounds}

    def run(self) -> int:
        OUT_DIR.mkdir(exist_ok=True)
        env_stamp = stamp()
        measure = self.layers if self.args.trace else self.end_to_end
        metrics, detail = measure()
        if set(metrics) != set(self.declared):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(self.declared))} "
                               "are not both measured and declared in BENCHMARK.json")
        a, c = self.args, self.checker
        print(f"perfbench {a.workload} seed={a.seed} trace={a.trace} quick={a.quick} "
              f"rounds={len(detail['rounds'])}")
        print("stamp " + json.dumps(env_stamp, sort_keys=True))
        alias = {"lib_items_per_s": self.wl.ITEM_NAMES[a.workload]}
        for name in sorted(metrics):
            label = f"{name} ({alias[name]})" if name in alias else name
            print(f"  {label:44s} {metrics[name]:>16.6g} {self.declared[name]}")
        if a.trace:
            for wname, mods in detail["module_self_s"].items():
                total = sum(mods.values())
                shares = ", ".join(f"{m} {v:.4f}" for m, v in sorted(mods.items()))
                print(f"  self time by module, {wname} (s): {shares}; sum {total:.4f}")
        print(f"  failed_frac {c.failed}/{c.attempted} = {c.failed / c.attempted:g}")
        record = {"args": vars(a), "stamp": env_stamp, "metrics": metrics,
                  "attempted": c.attempted, "failed": c.failed, "failures": c.failures,
                  **detail}
        result_path = OUT_DIR / f"{a.workload}-trace{a.trace}.json"
        result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
        print(json.dumps({
            "correct": c.failed == 0,
            "attempted": c.attempted,
            "failed": c.failed,
            "metrics": {k: {"value": v, "unit": self.declared[k]} for k, v in metrics.items()},
        }))
        return 0 if c.failed == 0 else 1


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["run-shots", "sweep-decode", "crosscheck"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and a single round (self-check)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgqec" / "cli.py").is_file():
        print(f"perfbench: no qgqec sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    with Launcher(child_env()) as launcher:  # while this process is still small
        sys.path.insert(0, str(SRC))
        import workloads  # needs SRC on sys.path

        return Bench(args, workloads, declared, launcher).run()


if __name__ == "__main__":
    sys.exit(main())
