"""Simulator tests: sampling, exact distributions, cross-validation, formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgqec import groups, sim
from qgqec._kernels_py import TableauEngine, outcome_map
from qgqec.circuits import Circuit, Counts, parse_circuit
from qgqec.rng import ShotStream

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_x_gate_all_ones():
    counts = sim.tableau_run(Circuit(1).x(0), 50, 7)
    assert counts.counts == {"1": 50}
    assert sim.exact_distribution(Circuit(1).x(0)) == {"1": 1.0}


def test_h_gate_four_sigma():
    shots = 4096
    counts = sim.tableau_run(Circuit(1).h(0), shots, 42)
    assert set(counts.counts) == {"0", "1"}
    sigma = math.sqrt(shots * 0.25)
    assert abs(counts.counts["0"] - shots / 2) < 4 * sigma
    assert counts.total_shots == shots


def test_bell_pair_outcomes():
    bell = Circuit(2).h(0).cnot(0, 1)
    counts = sim.tableau_run(bell, 500, 3)
    assert set(counts.counts) == {"00", "11"}
    dist = sim.exact_distribution(bell)
    assert abs(dist["00"] - 0.5) < 1e-12 and abs(dist["11"] - 0.5) < 1e-12


def test_exact_distribution_examples():
    assert sim.exact_distribution(Circuit(2)) == {"00": 1.0}
    h = sim.exact_distribution(Circuit(1).h(0))
    assert abs(h["0"] - 0.5) < 1e-12 and abs(h["1"] - 0.5) < 1e-12


def test_statevector_run_empty_circuit():
    counts = sim.statevector_run(Circuit(2), 25, 9)
    assert counts.counts == {"00": 25}


def test_statevector_matches_tableau_on_h_layer():
    c = Circuit(2).h(0).h(1)
    dist = sim.exact_distribution(c)
    assert all(abs(p - 0.25) < 1e-12 for p in dist.values())
    assert sim.total_variation(sim.tableau_distribution(c), dist) < 1e-12


def test_cz_epsilon_reweights_uniform_state():
    c = Circuit(2).h(0).h(1)
    c.unitary(groups.cz_epsilon(0.2, "formula"), (0, 1))
    dist = sim.exact_distribution(c)
    raw = {"00": 1.2**2, "01": 0.8**2, "10": 0.8**2, "11": 1.2**2}
    total = sum(raw.values())
    for key, value in raw.items():
        assert abs(dist[key] - value / total) < 1e-12


def test_quasi_rotation_gate_accepted_by_statevector():
    r = groups.build_quasi_rotation(0.1, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    c = Circuit(1).h(0)
    c.unitary(r, (0,))
    dist = sim.exact_distribution(c)
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_tableau_rejects_dense_gates():
    c = Circuit(1)
    c.unitary(np.eye(2), (0,))
    with pytest.raises(ValueError):
        sim.tableau_run(c, 10, 1)
    with pytest.raises(ValueError):
        sim.tableau_distribution(c)


def test_statevector_qubit_cap():
    with pytest.raises(ValueError):
        sim.exact_distribution(Circuit(17))
    with pytest.raises(ValueError):
        sim.statevector_run(Circuit(17), 1, 0)


def test_shots_validation():
    with pytest.raises(ValueError):
        sim.tableau_run(Circuit(1), 0, 0)
    with pytest.raises(ValueError):
        sim.statevector_run(Circuit(1), 0, 0)


def test_determinism_same_flags_same_counts():
    c = sim.random_clifford_circuit(5, 30, seed=77)
    a = sim.tableau_run(c, 300, 123)
    b = sim.tableau_run(c, 300, 123)
    assert a == b
    assert sim.tableau_run(c, 300, 124) != a  # seed actually matters
    sv1 = sim.statevector_run(c, 300, 123)
    sv2 = sim.statevector_run(c, 300, 123)
    assert sv1 == sv2


def test_counts_invariant_and_serialization():
    c = sim.random_clifford_circuit(4, 20, seed=5)
    counts = sim.tableau_run(c, 257, 11)
    assert sum(counts.counts.values()) == counts.total_shots == 257
    again = Counts.from_json(counts.to_json())
    assert again == counts
    from_csv = Counts.from_csv(counts.to_csv())
    assert from_csv == counts
    assert counts.to_csv().splitlines()[0] == "outcome,count"
    assert counts.to_csv().splitlines()[1].startswith('"')


@st.composite
def counts_tables(draw):
    """Counts with 1..40 distinct bitstrings of one width and positive counts."""
    width = draw(st.integers(1, 24))
    keys = st.integers(0, (1 << width) - 1).map(lambda v: format(v, f"0{width}b"))
    table = draw(st.dictionaries(keys, st.integers(1, 1 << 40), min_size=1, max_size=40))
    return Counts(table)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(counts_tables())
def test_counts_json_and_csv_round_trip(counts):
    assert Counts.from_json(counts.to_json()) == counts
    assert Counts.from_csv(counts.to_csv()) == counts


def test_counts_validation():
    with pytest.raises(ValueError):
        Counts({"00": 3}, 4)
    with pytest.raises(ValueError):
        Counts({"00": 1, "000": 1})


def test_gate_identities_behavioral():
    import random

    rnd = random.Random(2024)
    for pair in (("h", "h"), ("x", "x")):
        for _ in range(10):
            base = sim.random_clifford_circuit(3, rnd.randint(0, 15), seed=rnd.randrange(1 << 30))
            doubled = Circuit(3)
            doubled.gates = list(base.gates)
            q = rnd.randrange(3)
            getattr(doubled, pair[0])(q)
            getattr(doubled, pair[1])(q)
            tv = sim.total_variation(sim.exact_distribution(base), sim.exact_distribution(doubled))
            assert tv < 1e-12
    for _ in range(10):
        base = sim.random_clifford_circuit(3, rnd.randint(0, 15), seed=rnd.randrange(1 << 30))
        doubled = Circuit(3)
        doubled.gates = list(base.gates)
        a, b = rnd.sample(range(3), 2)
        doubled.cnot(a, b).cnot(a, b)
        tv = sim.total_variation(sim.exact_distribution(base), sim.exact_distribution(doubled))
        assert tv < 1e-12


def test_cz_decomposition_matches_dense():
    c = Circuit(2).h(0).h(1).cz(0, 1).h(1)
    assert sim.total_variation(sim.tableau_distribution(c), sim.exact_distribution(c)) < 1e-12


def test_backend_equivalence_subset():
    report = sim.backend_equivalence(num_circuits=30, max_qubits=6, max_gates=30, seed=5)
    assert report["passed"], report["failures"]
    assert report["worst_tv"] <= 1e-9


@PROPERTY
@given(st.integers(1, 10), st.integers(0, 60), st.integers(0, 1 << 62))
def test_tableau_distribution_is_uniform_on_2_to_the_r_outcomes(n, gates, seed):
    circuit = sim.random_clifford_circuit(n, gates, seed)
    engine = TableauEngine(n)
    engine.apply(sim._clifford_ops(circuit))
    r = len(outcome_map(engine)[1])
    dist = sim.tableau_distribution(circuit)
    assert len(dist) == 2**r
    assert set(dist.values()) == {2.0**-r}
    assert sim.total_variation(dist, sim.exact_distribution(circuit)) < 1e-9


def statevector_reference(circuit, shots, seed):
    """The sampler's definition: one stream float per shot, one search each."""
    flat = sim._final_state(circuit).reshape(-1)
    cumulative = np.cumsum(np.abs(flat) ** 2)
    cumulative /= cumulative[-1]
    hist = {}
    for shot in range(shots):
        u = ShotStream(seed, shot).next_float()
        idx = min(int(np.searchsorted(cumulative, u, side="right")), len(cumulative) - 1)
        key = format(idx, f"0{circuit.num_qubits}b")
        hist[key] = hist.get(key, 0) + 1
    return hist


@PROPERTY
@given(
    st.integers(1, 8),
    st.integers(0, 40),
    st.integers(0, 1 << 62),
    st.none() | st.floats(-0.9, 0.9),
    st.integers(1, 500),
    st.integers(-(1 << 64), 1 << 64),
)
def test_statevector_run_equals_per_shot_loop(n, gates, circuit_seed, epsilon, shots, seed):
    circuit = sim.random_clifford_circuit(n, gates, circuit_seed)
    if epsilon is not None and n >= 2:
        circuit.unitary(groups.cz_epsilon(epsilon, "formula"), (0, n - 1))
    counts = sim.statevector_run(circuit, shots, seed)
    assert counts.counts == statevector_reference(circuit, shots, seed)
    assert counts.total_shots == shots


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 1 << 62), st.none() | st.floats(-0.9, 0.9))
def test_exact_distribution_equals_full_amplitude_scan(n, gates, circuit_seed, epsilon):
    circuit = sim.random_clifford_circuit(n, gates, circuit_seed)
    if epsilon is not None and n >= 2:
        circuit.unitary(groups.cz_epsilon(epsilon, "formula"), (0, n - 1))
    probs = np.abs(sim._final_state(circuit).reshape(-1)) ** 2
    scan = {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if p > sim.PROB_PRUNE}
    dist = sim.exact_distribution(circuit)
    assert list(dist.items()) == list(scan.items())


def test_circuit_text_round_trip():
    c = Circuit(4).h(0).cnot(0, 3).cz(1, 2).x(3).z(2)
    text = c.to_text()
    assert text.splitlines()[0] == "# qubits: 4"
    again = parse_circuit(text)
    assert again.num_qubits == 4
    assert [str(g) for g in again.gates] == [str(g) for g in c.gates]


def test_circuit_text_parsing_details():
    parsed = parse_circuit("H 0\n# comment\nCNOT 0 5  # trailing\n\nX 3\n")
    assert parsed.num_qubits == 6
    assert len(parsed.gates) == 3
    with pytest.raises(ValueError):
        parse_circuit("T 0\n")
    with pytest.raises(ValueError):
        parse_circuit("H 0 1\n")
    with pytest.raises(ValueError):
        parse_circuit("# only a comment\n")


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0)
    c = Circuit(2)
    with pytest.raises(ValueError):
        c.h(2)
    with pytest.raises(ValueError):
        c.cnot(1, 1)
    with pytest.raises(ValueError):
        c.unitary(np.eye(3), (0,))
