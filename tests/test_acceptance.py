"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py -v` to see them live).

Every tolerance and runtime bound is pinned here; nothing is deferred.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qgqec import aqecc, experiments, groups, pauli, qoccc, sim, stats, tables
from qgqec.cases import CaseId
from qgqec.cli import main as cli_main

EXPECTED_DISTANCES = {"C1": 3, "C2": 3, "C3": 5, "C4": 11}
EXPECTED_CAPABILITY = {"C1": 1, "C2": 1, "C3": 2, "C4": 5}
EXPECTED_SWEEP_CASES = {"C1": 64, "C2": 160, "C3": 182, "C4": 293190}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_preset_certification():
    start = time.perf_counter()
    distances = {}
    capabilities = {}
    for case in CaseId:
        code = aqecc.build_qc_code(case)
        distances[case.name] = aqecc.min_distance(list(code.generator_rows))
        capabilities[case.name] = code.spec.capability
    elapsed = time.perf_counter() - start
    ok = distances == EXPECTED_DISTANCES and capabilities == EXPECTED_CAPABILITY and elapsed < 5.0
    report(1, ok, f"distances {distances}, P {capabilities}, {elapsed:.2f}s (< 5s)")
    assert distances == EXPECTED_DISTANCES
    assert capabilities == EXPECTED_CAPABILITY
    assert elapsed < 5.0


def test_criterion_2_exhaustive_correction():
    start = time.perf_counter()
    single = {
        case.name: experiments.exhaustive_correction_sweep(case, case.capability, threads=1)
        for case in CaseId
    }
    single_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    parallel = {
        case.name: experiments.exhaustive_correction_sweep(case, case.capability, threads=8)
        for case in CaseId
    }
    parallel_elapsed = time.perf_counter() - start

    tested = {name: r.patterns_tested for name, r in single.items()}
    all_corrected = all(
        r.patterns_corrected == r.patterns_tested for r in single.values()
    )
    ok = (
        tested == EXPECTED_SWEEP_CASES
        and all_corrected
        and single == parallel
        and single_elapsed < 60.0
        and parallel_elapsed < 10.0
    )
    report(
        2,
        ok,
        f"cases {tested}, 100% corrected, single {single_elapsed:.2f}s (< 60s), "
        f"8-way {parallel_elapsed:.2f}s (< 10s)",
    )
    assert tested == EXPECTED_SWEEP_CASES
    assert all_corrected
    assert single == parallel
    assert single_elapsed < 60.0
    assert parallel_elapsed < 10.0


def test_criterion_3_simulator_cross_validation():
    start = time.perf_counter()
    result = sim.backend_equivalence(num_circuits=200, max_qubits=8, max_gates=40, seed=20240)
    elapsed = time.perf_counter() - start
    ok = result["passed"] and elapsed < 30.0
    report(
        3,
        ok,
        f"200 circuits, worst TV {result['worst_tv']:.2e} (<= 1e-9 each), "
        f"{elapsed:.2f}s (< 30s)",
    )
    assert result["passed"], result["failures"]
    assert elapsed < 30.0


def test_criterion_4_paper_mean_reproduction_and_discrepancy_report():
    expected_mean = {"t1": 3.2, "t2": 3.2, "t3": 3.6, "t4": 5.1}
    expected_var = {"t1": 2.76, "t2": 2.76, "t3": 4.24, "t4": 4.49}
    expected_eta = {"t1": 78.125, "t2": 78.125}

    runner = CliRunner()
    ok = True
    details = []
    for tid in ("t1", "t2", "t3", "t4"):
        rows = tables.get_table(tid).rows()
        values = [v for _, v in rows]

        # independent brute-force oracle (no shared code with qgqec.stats)
        oracle_mean = sum(values) / len(values)
        oracle_var = sum((v - oracle_mean) ** 2 for v in values) / len(values)
        top = max(values)
        oracle_eta = 100.0 * sum(v for v in values if v < top) / sum(values)

        mu = stats.mean_counts(rows)
        var = stats.variance_counts(rows)
        eta = stats.error_rate(rows, stats.argmax_classifier(rows))

        ok &= abs(mu - expected_mean[tid]) <= 1e-12
        ok &= abs(mu - oracle_mean) <= 1e-12
        ok &= abs(var - oracle_var) <= 1e-12
        ok &= abs(var - expected_var[tid]) <= 1e-12
        ok &= abs(eta - oracle_eta) <= 1e-12
        if tid in expected_eta:
            ok &= abs(eta - expected_eta[tid]) <= 1e-12

        # the CLI must surface the paper's sigma^2 / eta as DISCREPANCY lines
        output = runner.invoke(cli_main, ["stats", tid, "--reference", tid]).output
        lines = output.splitlines()
        ok &= lines[0].endswith("MATCH") and lines[0].startswith("mean")
        ok &= lines[1].startswith("variance") and lines[1].endswith("DISCREPANCY")
        ok &= lines[2].startswith("error_rate_percent") and lines[2].endswith("DISCREPANCY")
        details.append(f"{tid}: mu={mu:g} var={var:g} eta={eta:g}")

    report(4, ok, "; ".join(details) + " (means match Table 9; var/eta reported as DISCREPANCY)")
    assert ok


def test_criterion_5_quasi_orthogonality_bound():
    start = time.perf_counter()
    rnd = np.random.default_rng(20260810)
    worst_margin = -np.inf
    ok = True
    for _ in range(100):
        dim = int(rnd.integers(2, 9))
        upper = rnd.uniform(-1.0, 1.0, size=(dim, dim))
        m = np.triu(upper, 1) - np.triu(upper, 1).T
        smax = float(np.linalg.svd(m, compute_uv=False)[0])
        for eps in (1e-1, 1e-2, 1e-3):
            defect = groups.orthogonality_defect(groups.build_quasi_rotation(eps, m))
            bound = eps**2 * smax**2 + 1e-9
            worst_margin = max(worst_margin, defect - bound)
            ok &= defect <= bound
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(
        5,
        ok,
        f"100 skew matrices x 3 epsilons, worst defect-bound margin {worst_margin:.2e} "
        f"(<= 0), {elapsed:.2f}s (< 5s)",
    )
    assert ok


def test_criterion_6_gram_schmidt_adjustment():
    rnd = np.random.default_rng(99)
    worst = 0.0
    for dim in (4, 8):
        for _ in range(100):
            arr = qoccc.QoArray(dim, rnd.uniform(-1.0, 1.0, size=(dim, dim)))
            rows = qoccc.adjust_gram_schmidt(arr).adjusted
            for i, j in itertools.combinations(range(dim), 2):
                worst = max(worst, abs(float(rows[i] @ rows[j])))
    literal = qoccc.adjust_literal(qoccc.QoArray(2, np.ones((2, 2)))).adjusted
    exact_zero = literal[0, 1] == 0.0 and literal[1, 0] == 0.0
    ok = worst < 1e-10 and exact_zero
    report(6, ok, f"GS worst |<ri,rj>| {worst:.2e} (< 1e-10); literal off-diagonals exactly 0")
    assert worst < 1e-10
    assert exact_zero


def test_criterion_7_commutation_laws():
    checked = 0
    ok = True
    for case in CaseId:
        code = aqecc.build_qc_code(case)
        m = case.m_physical
        check_ops = aqecc.stabilizer_check_operators(code)
        logical_ops = [
            pauli.x_operator(m, [i for i, c in enumerate(row) if c == "1"])
            for row in code.generator_rows
        ]
        for op, support in zip(check_ops, code.checks):
            for logical in logical_ops:
                ok &= pauli.commutes(op, logical)
                checked += 1
            for position, bit in enumerate(support):
                err = pauli.x_operator(m, [position])
                ok &= pauli.commutes(op, err) == (bit == "0")
                checked += 1
    report(7, ok, f"{checked} exhaustive commutation checks across all presets")
    assert ok


def test_criterion_8_determinism():
    runner = CliRunner()
    ok = True
    with runner.isolated_filesystem():
        run_files, run_out = [], []
        for _ in range(3):
            res = runner.invoke(
                cli_main,
                ["run", "--case", "c2", "--errors", "4", "--shots", "512", "--out", "r.json"],
                catch_exceptions=False,
            )
            run_out.append(res.output)
            run_files.append(Path("r.json").read_bytes())
        ok &= len(set(run_files)) == 1 and len(set(run_out)) == 1

        sweep_files, sweep_out = [], []
        for threads in (1, 4, 8, 1, 4, 8):
            res = runner.invoke(
                cli_main,
                ["sweep", "--case", "c4", "--max-weight", "3",
                 "--threads", str(threads), "--out", "s.json"],
                catch_exceptions=False,
            )
            sweep_out.append(res.output)
            sweep_files.append(Path("s.json").read_bytes())
        ok &= len(set(sweep_files)) == 1 and len(set(sweep_out)) == 1

        stats_out = {
            runner.invoke(cli_main, ["stats", "t1", "--reference", "t1"]).output
            for _ in range(3)
        }
        ok &= len(stats_out) == 1
    report(8, ok, "run x3, sweep x{1,4,8}x2, stats x3 all byte-identical")
    assert ok


def test_criterion_9_end_to_end_simulation():
    start = time.perf_counter()
    c3 = experiments.run_case(CaseId.C3, "aqecc", 1024, 42, (2, 9))
    c3_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    c4 = experiments.run_case(CaseId.C4, "aqecc", 1024, 42, (0, 1, 2, 3, 4, 5))
    c4_elapsed = time.perf_counter() - start
    ok = (
        c3.corrected_shots == 1024
        and c4.uncorrected_shots > 0
        and c3_elapsed < 10.0
        and c4_elapsed < 10.0
    )
    report(
        9,
        ok,
        f"C3 2-error corrected {c3.corrected_shots}/1024 in {c3_elapsed:.2f}s; "
        f"C4 6-error uncorrected {c4.uncorrected_shots} in {c4_elapsed:.2f}s (each < 10s)",
    )
    assert c3.corrected_shots == 1024
    assert c4.uncorrected_shots > 0
    assert c3_elapsed < 10.0
    assert c4_elapsed < 10.0
