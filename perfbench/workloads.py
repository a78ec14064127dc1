"""The benchmark's workloads, their output checks and their layer metrics.

Each workload turns (seed, round) into a list of `Command`s. A command is one
``qgqec`` CLI invocation together with the same work done in-process through
the library, which returns the exact stdout the CLI prints for it. Its
invariant check works on either output; digests and CLI/library equality are
checked by the caller.

Import this module only after the checkout's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import random
import re
import statistics
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from qgqec import aqecc, experiments, sim, stats
from qgqec.backend import BACKEND_NAME, available_backends, kernels
from qgqec.cases import CaseId

from spans import self_times

SHOTS, QUICK_SHOTS = 4096, 64
CIRCUITS, QUICK_CIRCUITS = 400, 20
# Circuits up to 12 qubits and 80 gates keep both engines busy: the dense
# engine's 2^n state and the tableau's 2^r branches grow together.
CROSSCHECK_QUBITS, CROSSCHECK_GATES = 12, 80
C2_SWEEP_WEIGHT = 10  # every pattern of C2; k = 16 makes the k^2 loop visible


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # arguments after `qgqec`
    tag: str  # case label, or the workload name when there is no case
    items: int  # shots, decode cases or circuits processed
    call: Callable[[], str]  # in-process equivalent; returns the CLI's stdout
    check: Callable[[str], list[str]]  # invariant violations in a stdout

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# -- run-shots --------------------------------------------------------------


def _run_call(case: CaseId, shots: int, seed: int, errors: tuple[int, ...]) -> str:
    return experiments.run_case(case, "aqecc", shots, seed, errors).to_json() + "\n"


def _check_run(shots: int, errors: tuple[int, ...], stdout: str) -> list[str]:
    try:
        report = json.loads(stdout)
        totals = (report["total_shots"], sum(report["counts"].values()))
        corrected, positions = report["corrected_shots"], tuple(report["error_positions"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]
    problems = []
    if totals != (shots, shots):
        problems.append(f"expected {shots} shots")
    if corrected != shots:
        problems.append("in-capability run left shots uncorrected")
    if positions != errors:
        problems.append("error positions differ from the request")
    return problems


def run_shots(seed: int, rnd: int, quick: bool, threads: int) -> list[Command]:
    """C1..C4, each with a seeded error set within the case's capability."""
    shots = QUICK_SHOTS if quick else SHOTS
    commands = []
    for case in CaseId:
        rng = random.Random(f"run-shots/{seed}/{rnd}/{case.name}")
        weight = rng.randint(1, case.capability)
        errors = tuple(sorted(rng.sample(range(case.m_physical), weight)))
        cli_seed = rng.randrange(1 << 31)
        argv = ("run", "--case", case.name.lower(), "--shots", str(shots),
                "--seed", str(cli_seed), "--errors", ",".join(map(str, errors)))
        commands.append(Command(
            argv, case.name.lower(), shots,
            partial(_run_call, case, shots, cli_seed, errors),
            partial(_check_run, shots, errors),
        ))
    return commands


# -- sweep-decode -----------------------------------------------------------


def _sweep_call(case: CaseId, max_weight: int, threads: int) -> str:
    result = experiments.exhaustive_correction_sweep(case, max_weight, threads)
    within = min(max_weight, case.capability)
    lines = [f"weight {w}: {c}/{t} corrected" for w, t, c in result.per_weight]
    lines += [
        f"patterns_tested: {result.patterns_tested}",
        f"patterns_corrected: {result.patterns_corrected}",
        f"all corrected up to weight {within}: {result.all_corrected_up_to(within)}",
    ]
    return "\n".join(lines) + "\n"


_WEIGHT_LINE = re.compile(r"weight (\d+): (\d+)/(\d+) corrected")


def _sweep_cases(case: CaseId, weight: int) -> int:
    return (1 << case.n_logical) * math.comb(case.m_physical, weight)


def _check_sweep(case: CaseId, max_weight: int, stdout: str) -> list[str]:
    found = {int(w): (int(c), int(t)) for w, c, t in _WEIGHT_LINE.findall(stdout)}
    problems = []
    if sorted(found) != list(range(1, max_weight + 1)):
        problems.append(f"weights {sorted(found)} instead of 1..{max_weight}")
    for w, (corrected, cases) in found.items():
        if cases != _sweep_cases(case, w):
            problems.append(f"weight {w}: {cases} cases, expected k*C(m,w)")
        if w <= case.capability and corrected != cases:
            problems.append(f"weight {w} <= P not fully corrected")
    within = min(max_weight, case.capability)
    if f"all corrected up to weight {within}: True" not in stdout:
        problems.append("capability line missing or False")
    return problems


def sweep_decode(seed: int, rnd: int, quick: bool, threads: int) -> list[Command]:
    """C4 at its capability and C2 at every weight; the seed is not used,
    because a sweep has no randomness."""
    commands = []
    for case, weight_flag in ((CaseId.C4, None), (CaseId.C2, C2_SWEEP_WEIGHT)):
        max_weight = weight_flag or case.capability
        argv = ("sweep", "--case", case.name.lower())
        argv += ("--max-weight", str(weight_flag)) if weight_flag else ()
        argv += ("--threads", str(threads))
        items = sum(_sweep_cases(case, w) for w in range(1, max_weight + 1))
        commands.append(Command(
            argv, case.name.lower(), items,
            partial(_sweep_call, case, max_weight, threads),
            partial(_check_sweep, case, max_weight),
        ))
    return commands


# -- crosscheck -------------------------------------------------------------


def _crosscheck_call(circuits: int, seed: int, backends: str) -> str:
    report = sim.backend_equivalence(circuits, CROSSCHECK_QUBITS, CROSSCHECK_GATES, seed=seed)
    lines = [
        f"kernel backend: {BACKEND_NAME} (available: {backends})",
        f"{report['circuits']} circuits, worst total variation {report['worst_tv']:.3e} "
        f"(tolerance {report['tolerance']:.0e})",
    ]
    if report["passed"]:
        lines.append("backends agree")
    return "\n".join(lines) + "\n"


def _check_crosscheck(circuits: int, stdout: str) -> list[str]:
    problems = []
    if f"\n{circuits} circuits, " not in stdout:
        problems.append(f"no summary line for {circuits} circuits")
    if not stdout.endswith("backends agree\n"):
        problems.append("'backends agree' missing")
    return problems


def crosscheck(seed: int, rnd: int, quick: bool, threads: int) -> list[Command]:
    """One `backends-check` over fresh seeded random Clifford circuits."""
    circuits = QUICK_CIRCUITS if quick else CIRCUITS
    cli_seed = random.Random(f"crosscheck/{seed}/{rnd}").randrange(1 << 31)
    argv = ("backends-check", "--circuits", str(circuits),
            "--max-qubits", str(CROSSCHECK_QUBITS), "--max-gates", str(CROSSCHECK_GATES),
            "--seed", str(cli_seed))
    backends = ", ".join(available_backends())
    return [Command(
        argv, "crosscheck", circuits,
        partial(_crosscheck_call, circuits, cli_seed, backends),
        partial(_check_crosscheck, circuits),
    )]


WORKLOADS = {"run-shots": run_shots, "sweep-decode": sweep_decode, "crosscheck": crosscheck}
# What `lib_items_per_s` counts on each workload.
ITEM_NAMES = {"run-shots": "shots_per_s", "sweep-decode": "decode_cases_per_s",
              "crosscheck": "circuits_per_s"}


# -- traced run -------------------------------------------------------------


def trace_targets():
    """(owner, attribute, span name, counters) for every traced public call."""
    return [
        (experiments, "run_case", "experiments.run_case", None),
        (experiments, "build_case_circuit", "experiments.build_case_circuit", None),
        (experiments, "classify_outcome", "experiments.classify_outcome", None),
        (experiments, "exhaustive_correction_sweep", "experiments.exhaustive_correction_sweep", None),
        (experiments.CaseReport, "to_json", "experiments.CaseReport.to_json", None),
        (aqecc, "build_qc_code", "aqecc.build_qc_code", None),
        (aqecc, "decode", "aqecc.decode", None),
        (stats, "mean_counts", "stats.mean_counts", None),
        (stats, "variance_counts", "stats.variance_counts", None),
        (sim, "tableau_run", "sim.tableau_run",
         lambda args, counts: {"distinct": counts.num_outcomes()}),
        (sim, "tableau_distribution", "sim.tableau_distribution",
         lambda args, dist: {"support": len(dist)}),
        (sim, "exact_distribution", "sim.exact_distribution", None),
        (sim, "random_clifford_circuit", "sim.random_clifford_circuit", None),
        (sim, "total_variation", "sim.total_variation", None),
        (sim, "backend_equivalence", "sim.backend_equivalence", None),
        (kernels, "sample_shots", "kernels.sample_shots",
         lambda args, outcomes: {"shots": args[2]}),
        (kernels, "sweep_weight", "kernels.sweep_weight",
         lambda args, result: {"weight": args[2], "cases": result[0], "corrected": result[1]}),
    ]


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _evolve_s(commands: list[Command], repeats: int) -> float:
    """TableauEngine(n) plus apply(ops) for each case circuit, summed."""
    total = 0.0
    for cmd in commands:
        case = CaseId.parse(cmd.tag)
        errors = tuple(int(p) for p in cmd.argv[-1].split(","))
        circuit = experiments.build_case_circuit(case, "aqecc", errors)
        ops = sim._clifford_ops(circuit)  # the ops sim.tableau_run passes on

        def evolve():
            kernels.TableauEngine(circuit.num_qubits).apply(ops)

        total += _median_time(evolve, repeats)
    return total


def _thread_speedup(threads: int, repeats: int) -> float:
    """C4 sweep time at 1 thread over the time at `threads` threads."""
    def at(t):
        return _median_time(lambda: experiments.exhaustive_correction_sweep(CaseId.C4, 5, t), repeats)

    return at(1) / at(threads)


def probe_metrics(workload: str, commands: list[Command], threads: int, quick: bool) -> dict:
    """Layer metrics measured directly instead of from spans."""
    repeats = 1 if quick else 3
    if workload == "run-shots":
        return {"kernels.evolve_s": _evolve_s(commands, repeats)}
    if workload == "sweep-decode":
        return {"experiments.sweep_thread_speedup": _thread_speedup(threads, repeats)}
    return {}


def span_metrics(workload: str, spans) -> dict:
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    own = self_times(spans)

    def total(name, tag=None, counter=None):
        found = [s for s in spans if s.name == name and (tag is None or s.tag == tag)]
        if counter is not None:
            return sum(s.counters[counter] for s in found)
        return sum(own[s.id] for s in found) / 1e9

    m = {}
    if workload == "run-shots":
        shots = total("kernels.sample_shots", counter="shots")
        distinct = total("sim.tableau_run", counter="distinct")
        m["kernels.sample_shots_s"] = total("kernels.sample_shots")
        m["kernels.ns_per_shot"] = m["kernels.sample_shots_s"] * 1e9 / shots
        m["sim.histogram_s"] = total("sim.tableau_run")
        m["sim.distinct_outcomes"] = distinct
        m["sim.shots_per_distinct_outcome"] = shots / distinct
        for case in ("c1", "c2", "c3", "c4"):
            m[f"kernels.sample_shots_s.{case}"] = total("kernels.sample_shots", case)
            m[f"sim.distinct_outcomes.{case}"] = total("sim.tableau_run", case, "distinct")
        m["experiments.run_case_s"] = total("experiments.run_case")
        m["experiments.build_case_circuit_s"] = total("experiments.build_case_circuit")
        m["aqecc.build_qc_code_s"] = total("aqecc.build_qc_code")
        m["experiments.classify_s"] = total("experiments.classify_outcome")
        m["aqecc.decode_s"] = total("aqecc.decode")
        m["stats.summarize_s"] = total("stats.mean_counts") + total("stats.variance_counts")
        m["experiments.serialize_s"] = total("experiments.CaseReport.to_json")
    elif workload == "sweep-decode":
        cases = total("kernels.sweep_weight", counter="cases")
        m["kernels.ns_per_decode_case"] = total("kernels.sweep_weight") * 1e9 / cases
        m["experiments.sweep_s"] = total("experiments.exhaustive_correction_sweep")
        c4 = [s for s in spans if s.name == "kernels.sweep_weight" and s.tag == "c4"]
        for s in c4:
            w = s.counters["weight"]
            m[f"kernels.sweep_weight_s.w{w}"] = own[s.id] / 1e9
            m[f"kernels.sweep_cases.w{w}"] = s.counters["cases"]
            m[f"kernels.sweep_corrected.w{w}"] = s.counters["corrected"]
        m["kernels.sweep_weight_s.c2"] = total("kernels.sweep_weight", "c2")
        m["kernels.sweep_cases.c2"] = total("kernels.sweep_weight", "c2", "cases")
        m["kernels.sweep_corrected.c2"] = total("kernels.sweep_weight", "c2", "corrected")
    else:
        m["sim.tableau_distribution_s"] = total("sim.tableau_distribution")
        m["sim.support_size"] = total("sim.tableau_distribution", counter="support")
        m["sim.exact_distribution_s"] = total("sim.exact_distribution")
        m["sim.random_circuit_s"] = total("sim.random_clifford_circuit")
        m["sim.total_variation_s"] = total("sim.total_variation")
        m["sim.backend_equivalence_s"] = total("sim.backend_equivalence")
    return m


def module_self_times(spans) -> dict[str, float]:
    """Self time per module (span-name prefix) in seconds; sums to the pass."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        module = s.name.split(".")[0]
        out[module] = out.get(module, 0.0) + own[s.id] / 1e9
    return out
