"""Self-check of the benchmark: every metric name and every output check.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_pass_reports_every_declared_metric(workload, trace):
    done = bench("--quick", "--workload", workload, "--seed", str(run.DEFAULT_SEED),
                 "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_quick_commands_at_default_seed_have_recorded_digests():
    golden = json.loads((HERE / "golden.json").read_text())["digests"]
    for make in workloads.WORKLOADS.values():
        for threads in (1, 2):
            for cmd in make(run.DEFAULT_SEED, 0, True, threads):
                assert cmd.key in golden


def _first(workload):
    return workloads.WORKLOADS[workload](run.DEFAULT_SEED, 0, True, 1)[0]


@pytest.mark.parametrize("workload, old, new", [
    ("run-shots", '"corrected_shots": 64', '"corrected_shots": 63'),
    ("run-shots", '"total_shots": 64', '"total_shots": 65'),
    ("run-shots", '"error_positions": [', '"error_positions": [7, '),
    ("sweep-decode", "weight 2: 812/812", "weight 2: 811/812"),
    ("sweep-decode", "weight 3: 7308/7308", "weight 3: 7308/7309"),
    ("sweep-decode", "weight 5: 237510/237510 corrected\n", ""),
    ("crosscheck", "backends agree\n", ""),
    ("crosscheck", "20 circuits", "19 circuits"),
])
def test_invariant_checks_reject_tampered_output(workload, old, new):
    cmd = _first(workload)
    genuine = cmd.call()
    assert cmd.check(genuine) == []
    assert old in genuine
    assert cmd.check(genuine.replace(old, new, 1))


def test_checker_counts_digest_mismatch_and_nondeterminism():
    cmd = _first("crosscheck")
    genuine = cmd.call()
    checker = run.Checker({cmd.key: run.sha256(genuine)})
    checker.verify(cmd, "cli", genuine)
    assert checker.failed == 0
    checker.verify(cmd, "lib", genuine + " ")  # same invariants, other bytes
    checker.verify(cmd, "cli", genuine, ["exit code 1"])
    assert (checker.attempted, checker.failed) == (3, 2)
    unrecorded = run.Checker({})
    unrecorded.verify(cmd, "cli", genuine)
    unrecorded.verify(cmd, "lib", genuine.replace("kernel backend", "kernel  backend"))
    assert unrecorded.failed == 1


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.spans
    own = self_times(tracer.spans)
    assert inner.parent == outer.id
    assert own[outer.id] == outer.duration - inner.duration
    assert sum(own.values()) == outer.duration


def test_patching_is_undone_after_a_traced_pass():
    original = workloads.kernels.sample_shots
    circuit = workloads.experiments.build_case_circuit("c1")
    tracer = Tracer()
    with tracer.patched(workloads.trace_targets()):
        assert workloads.kernels.sample_shots is not original
        workloads.sim.tableau_run(circuit, 8, 1)
    assert workloads.kernels.sample_shots is original
    assert [s.name for s in tracer.spans] == ["sim.tableau_run", "kernels.sample_shots"]
    assert tracer.spans[1].counters == {"shots": 8}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "sweep-decode", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
