"""Case pipeline tests: circuits, classification, sweeps, reports."""

import json
import random
import threading
from unittest import mock

import pytest

from qgqec import aqecc, experiments, sim
from qgqec.backend import kernels
from qgqec.cases import CaseId


def test_build_case_circuit_shapes():
    c1 = experiments.build_case_circuit(CaseId.C1)
    assert c1.num_qubits == 8
    counts = c1.gate_counts()
    assert counts["H"] == 3
    assert counts.get("X", 0) == 0

    c3 = experiments.build_case_circuit(CaseId.C3, "aqecc", (0, 12))
    assert c3.num_qubits == 13
    assert c3.gate_counts()["X"] == 2
    assert c3.gate_counts()["H"] == 1

    c4 = experiments.build_case_circuit(CaseId.C4, "aqecc", (0, 1, 2, 3, 4, 5))
    assert c4.num_qubits == 29
    assert c4.gate_counts()["X"] == 6  # capability excess is fine at build time


def test_build_case_circuit_validation():
    with pytest.raises(ValueError):
        experiments.build_case_circuit(CaseId.C1, "aqecc", (3, 3))
    with pytest.raises(ValueError):
        experiments.build_case_circuit(CaseId.C1, "aqecc", (8,))
    with pytest.raises(ValueError):
        experiments.build_case_circuit(CaseId.C1, "bogus", ())
    with pytest.raises(ValueError):
        experiments.build_case_circuit("C7")


def test_logical_positions_private_support():
    for case in CaseId:
        code = aqecc.build_qc_code(case)
        pivots = experiments.logical_positions(code)
        assert len(pivots) == case.n_logical
        supports = [
            {i for i, c in enumerate(row) if c == "1"} for row in code.generator_rows
        ]
        for j, pivot in enumerate(pivots):
            assert pivot in supports[j]
            for i, support in enumerate(supports):
                if i != j:
                    assert pivot not in support


def test_no_error_outcomes_are_codewords():
    for case in CaseId:
        code = aqecc.build_qc_code(case)
        codeword_set = {
            format(cw, f"0{case.m_physical}b") for cw in code.codewords()
        }
        report = experiments.run_case(case, "aqecc", 128, 11)
        assert set(report.counts.counts) <= codeword_set
        assert report.corrected_shots == 128


def test_single_logical_cases_have_two_decoded_outcomes():
    for case in (CaseId.C3, CaseId.C4):
        report = experiments.run_case(case, "aqecc", 256, 5)
        hist = experiments.decoded_histogram(case, report.counts)
        assert len(hist) == 2
        assert sum(hist.values()) == 256


def test_run_case_within_capability_corrects_everything():
    rnd = random.Random(99)
    for case in CaseId:
        m, p = case.m_physical, case.capability
        for _ in range(5):
            weight = rnd.randint(1, p)
            positions = tuple(sorted(rnd.sample(range(m), weight)))
            report = experiments.run_case(case, "aqecc", 64, 17, positions)
            assert report.corrected_shots == 64, (case, positions)
            assert report.uncorrected_shots == 0
            assert report.stats.error_rate_percent == 0.0


def test_run_case_beyond_capability():
    report = experiments.run_case(CaseId.C4, "aqecc", 256, 42, tuple(range(6)))
    assert report.uncorrected_shots > 0
    assert report.corrected_shots + report.uncorrected_shots == 256


def test_case_report_json():
    report = experiments.run_case(CaseId.C1, "qoccc", 64, 42, (3,))
    payload = json.loads(report.to_json())
    assert payload["case"] == "C1"
    assert payload["family"] == "qoccc"
    assert payload["corrected_shots"] == 64
    assert payload["error_positions"] == [3]
    assert sum(payload["counts"].values()) == payload["total_shots"]
    assert experiments.CaseReport.from_json(report.to_json()) == report


def test_sweep_result_json_round_trip():
    res = experiments.exhaustive_correction_sweep(CaseId.C1, 2)
    assert experiments.SweepResult.from_json(res.to_json()) == res


def test_sweep_counts_and_classification():
    res = experiments.exhaustive_correction_sweep(CaseId.C1, 1)
    assert (res.patterns_tested, res.patterns_corrected) == (64, 64)
    assert res.all_corrected_up_to(1)

    res2 = experiments.exhaustive_correction_sweep(CaseId.C1, 2)
    assert res2.patterns_tested == 64 + 8 * 28
    assert res2.patterns_corrected < res2.patterns_tested  # weight-2 failures exist
    assert res2.all_corrected_up_to(1)
    assert not res2.all_corrected_up_to(2)

    res3 = experiments.exhaustive_correction_sweep(CaseId.C3, 2)
    assert (res3.patterns_tested, res3.patterns_corrected) == (182, 182)


def test_sweep_thread_count_does_not_change_result():
    single = experiments.exhaustive_correction_sweep(CaseId.C2, 3, threads=1)
    quad = experiments.exhaustive_correction_sweep(CaseId.C2, 3, threads=4)
    assert single == quad
    assert single.to_json() == quad.to_json()


def test_sweep_runs_every_weight_on_the_calling_thread():
    threads = []
    sweep_weight = kernels.sweep_weight

    def recording(m, codewords, weight):
        threads.append(threading.get_ident())
        return sweep_weight(m, codewords, weight)

    with mock.patch.object(kernels, "sweep_weight", recording):
        res = experiments.exhaustive_correction_sweep(CaseId.C2, 10, threads=8)
    assert threads == [threading.get_ident()] * 10
    assert res == experiments.exhaustive_correction_sweep(CaseId.C2, 10, threads=1)


def test_sweep_validation():
    with pytest.raises(ValueError):
        experiments.exhaustive_correction_sweep(CaseId.C1, 0)


def test_classify_outcome_rules():
    code = aqecc.build_qc_code(CaseId.C3)
    cw = aqecc.encode_logical(code, "1")
    assert experiments.classify_outcome(code, cw, ())
    flipped = "0" + cw[1:]
    assert experiments.classify_outcome(code, flipped, (0,))
    # wrong claimed position: decode weight 1 != 0 injected
    assert not experiments.classify_outcome(code, flipped, ())


def test_barchart_csv_sorted():
    report = experiments.run_case(CaseId.C1, "aqecc", 200, 42)
    text = experiments.barchart_csv(report.counts)
    lines = text.strip().splitlines()
    assert lines[0] == "outcome,count"
    values = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)


def test_qoccc_family_uses_same_circuit():
    a = experiments.build_case_circuit(CaseId.C2, "aqecc", (1,))
    b = experiments.build_case_circuit(CaseId.C2, "qoccc", (1,))
    assert [str(g) for g in a.gates] == [str(g) for g in b.gates]
    ra = experiments.run_case(CaseId.C2, "aqecc", 64, 7, (1,))
    rb = experiments.run_case(CaseId.C2, "qoccc", 64, 7, (1,))
    assert ra.counts == rb.counts
    assert rb.family == "qoccc"


def test_tableau_backend_agrees_with_statevector_for_c3():
    circuit = experiments.build_case_circuit(CaseId.C3, "aqecc", (0, 12))
    assert sim.total_variation(
        sim.tableau_distribution(circuit), sim.exact_distribution(circuit)
    ) < 1e-12
