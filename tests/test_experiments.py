"""Case pipeline tests: circuits, classification, sweeps, reports."""

import hashlib
import json
import random
import re
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgqec import aqecc, experiments, sim
from qgqec.backend import kernels
from qgqec.cases import CaseId


def test_build_case_circuit_shapes():
    c1 = experiments.build_case_circuit(CaseId.C1)
    assert c1.num_qubits == 8
    counts = Counter(g.name for g in c1.gates)
    assert counts["H"] == 3
    assert counts["X"] == 0

    c3 = experiments.build_case_circuit(CaseId.C3, "aqecc", (0, 12))
    assert c3.num_qubits == 13
    counts = Counter(g.name for g in c3.gates)
    assert counts["X"] == 2
    assert counts["H"] == 1

    c4 = experiments.build_case_circuit(CaseId.C4, "aqecc", (0, 1, 2, 3, 4, 5))
    assert c4.num_qubits == 29
    assert Counter(g.name for g in c4.gates)["X"] == 6  # capability excess is fine at build time


def test_build_case_circuit_validation():
    with pytest.raises(ValueError):
        experiments.build_case_circuit(CaseId.C1, "aqecc", (3, 3))
    with pytest.raises(ValueError):
        experiments.build_case_circuit(CaseId.C1, "aqecc", (8,))
    with pytest.raises(ValueError):
        experiments.build_case_circuit(CaseId.C1, "bogus", ())
    with pytest.raises(ValueError):
        experiments.build_case_circuit("C7")


# sha256 (first 16 hex digits) of repr([(name, qubits), ...]) of each case
# circuit, without errors and with X's at 0, 2, ..., 2 (P - 1), as the
# circuits were built gate by gate through Circuit.h / .cnot / .x
CASE_CIRCUIT_DIGESTS = {
    "C1": ("335c3d26ae44a6cd", "f68b2bce92b6feed"),
    "C2": ("e33327843ac83844", "db5ebc11150d6295"),
    "C3": ("568d415692247fd5", "1072eede86c388d6"),
    "C4": ("5a7b5d082ab4e994", "e3956d01db5d2fcf"),
}


def gate_listing(circuit):
    return [(g.name, g.qubits) for g in circuit.gates]


C1_ENCODER = [("H", (6,)), ("H", (4,)), ("H", (1,)), ("CNOT", (6, 5)), ("CNOT", (6, 7)),
              ("CNOT", (4, 3)), ("CNOT", (4, 5)), ("CNOT", (1, 2)), ("CNOT", (1, 3))]


@pytest.mark.parametrize("case", list(CaseId))
def test_build_case_circuit_gates_are_pinned(case):
    errors = tuple(range(0, 2 * case.capability, 2))
    listings = [gate_listing(experiments.build_case_circuit(case, "aqecc", positions))
                for positions in ((), errors)]
    digests = tuple(hashlib.sha256(repr(g).encode()).hexdigest()[:16] for g in listings)
    assert digests == CASE_CIRCUIT_DIGESTS[case.name]
    assert listings[1] == listings[0] + [("X", (p,)) for p in errors]
    if case is CaseId.C1:
        assert listings[0] == C1_ENCODER


def test_build_case_circuit_shares_encoder_gates_not_lists():
    a = experiments.build_case_circuit(CaseId.C2, "aqecc", (3,))
    before = gate_listing(a)
    encoder = len(before) - 1
    a.x(0).h(5)
    a.gates[0] = a.gates[-1]
    del a.gates[1]
    b = experiments.build_case_circuit(CaseId.C2, "aqecc", (3,))
    assert gate_listing(b) == before
    c = experiments.build_case_circuit(CaseId.C2)
    assert all(g is h for g, h in zip(b.gates[:encoder], c.gates))
    assert b.gates is not c.gates and len(c.gates) == encoder


@pytest.mark.parametrize("case, family, positions", [
    (CaseId.C1, "aqecc", (3, 3)), (CaseId.C1, "aqecc", (8,)), (CaseId.C1, "aqecc", (-1,)),
    (CaseId.C3, "bogus", ()), (CaseId.C4, "aqecc", (29,)),
])
def test_build_case_circuit_checks_before_building(case, family, positions):
    with mock.patch.object(experiments, "_encoder", wraps=experiments._encoder) as encoder, \
            mock.patch.object(experiments, "Circuit", wraps=experiments.Circuit) as circuit:
        with pytest.raises(ValueError):
            experiments.build_case_circuit(case, family, positions)
    assert encoder.call_count == 0 and circuit.call_count == 0


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
        code = aqecc.build_qc_code(case)
        hist = Counter()
        for outcome, count in report.counts.counts.items():
            hist[aqecc.decode(code, outcome)[0]] += count
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


@pytest.mark.parametrize("family, shots, positions, message", [
    ("bogus", 8, (), "family must be one of ('qoccc', 'aqecc'), got 'bogus'"),
    ("aqecc", 0, (), "shots must be >= 1"),
    ("aqecc", 8, (3, 3), "error positions must be distinct"),
    ("aqecc", 8, (8,), "error position 8 out of range for M=8"),
])
def test_run_case_rejections(family, shots, positions, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        experiments.run_case(CaseId.C1, family, shots, 1, positions)


def test_case_report_json():
    report = experiments.run_case(CaseId.C1, "qoccc", 64, 42, (3,))
    payload = json.loads(report.to_json())
    assert payload["case"] == "C1"
    assert payload["family"] == "qoccc"
    assert payload["corrected_shots"] == 64
    assert payload["error_positions"] == [3]
    assert sum(payload["counts"].values()) == payload["total_shots"]


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
    with pytest.raises(ValueError, match="exceeds M=8"):
        experiments.exhaustive_correction_sweep(CaseId.C1, 9)
    full = experiments.exhaustive_correction_sweep(CaseId.C1, 8)
    assert [w for w, _, _ in full.per_weight] == list(range(1, 9))


def test_classify_outcome_rules():
    code = aqecc.build_qc_code(CaseId.C3)
    cw = format(code.codewords()[1], "013b")
    assert experiments.classify_outcome(code, cw, ())
    flipped = "0" + cw[1:]
    assert experiments.classify_outcome(code, flipped, (0,))
    # wrong claimed position: decode weight 1 != 0 injected
    assert not experiments.classify_outcome(code, flipped, ())
    # the flips need not be the injected ones: these sit at 10 and 11, not 8
    # and 9, yet the outcome decodes at distance 2 to the logical bits of the
    # outcome with 8 and 9 undone
    assert experiments.classify_outcome(code, "0000000000110", (8, 9))


def string_classify_reference(code, outcome, positions):
    """`classify_outcome` by its string definition: undo the injected flips
    with a format round trip and decode both bitstrings."""
    m = code.spec.m_physical
    mask = sum(1 << (m - 1 - p) for p in positions)
    ideal_logical, _, _ = aqecc.decode(code, format(int(outcome, 2) ^ mask, f"0{m}b"))
    logical, _, weight = aqecc.decode(code, outcome)
    return weight == len(positions) and logical == ideal_logical


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(CaseId)), st.data())
def test_classify_outcome_equals_string_definition(case, data):
    code = aqecc.build_qc_code(case)
    m = case.m_physical
    if data.draw(st.booleans()):  # a codeword with a few flips
        word = code.codewords()[data.draw(st.integers(0, len(code.codewords()) - 1))]
        for p in data.draw(st.lists(st.integers(0, m - 1), max_size=case.capability + 1)):
            word ^= 1 << p
        outcome = format(word, f"0{m}b")
    else:
        outcome = data.draw(st.text("01", min_size=m, max_size=m))
    positions = tuple(data.draw(st.lists(st.integers(0, m - 1), unique=True,
                                         max_size=case.capability + 2)))
    assert experiments.classify_outcome(code, outcome, positions) == \
        string_classify_reference(code, outcome, positions)
    batch = [outcome] + data.draw(st.lists(st.text("01", min_size=m, max_size=m), max_size=6))
    assert experiments.uncorrected_outcomes(code, batch, positions) == \
        {o for o in batch if not experiments.classify_outcome(code, o, positions)} == \
        {o for o in batch if not string_classify_reference(code, o, positions)}
    for bad in (outcome[1:], outcome + "0"):
        with pytest.raises(ValueError, match=f"expected {m} bits"):
            experiments.classify_outcome(code, bad, positions)
    i = data.draw(st.integers(0, m - 1))
    for char in "_+- 2":  # int(s, 2) accepts each but '2' at some position
        with pytest.raises(ValueError, match="not a '0'/'1' bitstring"):
            experiments.classify_outcome(code, outcome[:i] + char + outcome[i + 1:], positions)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(CaseId)), st.data())
def test_uncorrected_outcomes_on_whole_cosets_equals_string_definition(case, data):
    """A batch holding every codeword ^ injected mask, the support a run
    samples, at any weight 0..M (ties D[t] = w and weights past the
    capability included), mixed with random strings off the coset: the
    coset rule and the two-decode fallback reject what the string
    definition rejects."""
    code = aqecc.build_qc_code(case)
    m = case.m_physical
    weight = data.draw(st.integers(0, m))
    positions = tuple(data.draw(st.permutations(range(m)))[:weight])
    mask = sum(1 << (m - 1 - p) for p in positions)
    batch = [format(cw ^ mask, f"0{m}b") for cw in code.codewords()]
    batch += data.draw(st.lists(st.text("01", min_size=m, max_size=m), max_size=8))
    batch = data.draw(st.permutations(batch))
    assert experiments.uncorrected_outcomes(code, batch, positions) == \
        {o for o in batch if not string_classify_reference(code, o, positions)}


@pytest.mark.parametrize("case", list(CaseId))
def test_run_case_equals_string_decoding(case):
    positions = tuple(range(0, 2 * case.capability, 2))
    with mock.patch.object(experiments, "_error_mask", wraps=experiments._error_mask) as mask:
        report = experiments.run_case(case, "aqecc", 512, 3, positions)
    assert mask.call_count == 1  # once per run, not once per outcome
    code = aqecc.build_qc_code(case)
    corrected = sum(count for outcome, count in report.counts.counts.items()
                    if string_classify_reference(code, outcome, positions))
    assert report.corrected_shots == corrected


def test_classify_outcome_rejects_bad_positions():
    code = aqecc.build_qc_code(CaseId.C1)
    cw = format(code.codewords()[0b101], "08b")
    for positions, message in (((0, 0), "must be distinct"),
                               ((8,), "position 8 out of range for M=8"),
                               ((-1,), "position -1 out of range for M=8")):
        with pytest.raises(ValueError, match=message):
            experiments.classify_outcome(code, cw, positions)
        with pytest.raises(ValueError, match=message):
            experiments.build_case_circuit(CaseId.C1, "aqecc", positions)


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
    assert [(g.name, g.qubits) for g in a.gates] == [(g.name, g.qubits) for g in b.gates]
    ra = experiments.run_case(CaseId.C2, "aqecc", 64, 7, (1,))
    rb = experiments.run_case(CaseId.C2, "qoccc", 64, 7, (1,))
    assert ra.counts == rb.counts
    assert rb.family == "qoccc"


def test_tableau_backend_agrees_with_statevector_for_c3():
    circuit = experiments.build_case_circuit(CaseId.C3, "aqecc", (0, 12))
    assert sim.total_variation(
        sim.tableau_distribution(circuit), sim.exact_distribution(circuit)
    ) < 1e-12
