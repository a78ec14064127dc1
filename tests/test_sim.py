"""Simulator tests: sampling, exact distributions, cross-validation, formats."""

import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgqec import circuits, groups, sim
from qgqec._kernels_py import outcome_map
from qgqec.circuits import Circuit, Counts, Gate, parse_count_rows
from sim_reference import (
    exact_distribution_reference,
    outcome_of_index,
    random_clifford_circuit_draw_reference,
    random_clifford_circuit_reference,
)

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


def test_tableau_backends_refuse_a_qubit_out_of_range():
    """A hand-appended gate bypasses ``Circuit``'s check; the tableau
    sampler and distribution and the dense engine all refuse it, with
    ``Circuit``'s message, instead of wrapping it or raising IndexError.
    A gate on the wrong number of qubits is refused too, instead of acting
    on its first qubit alone or failing to unpack."""
    for gate, message in ((Gate("X", (-1,)), "qubit -1 out of range for 3 qubits"),
                          (Gate("Z", (-1,)), "qubit -1 out of range for 3 qubits"),
                          (Gate("X", (3,)), "qubit 3 out of range for 3 qubits"),
                          (Gate("CNOT", (0, 0)), "gate qubits must be distinct"),
                          (Gate("CZ", (1, 1)), "gate qubits must be distinct"),
                          (Gate("X", (0, 1)), "X acts on 1 qubit, got 2"),
                          (Gate("H", (0, 2)), "H acts on 1 qubit, got 2"),
                          (Gate("CZ", (0, 1, 2)), "CZ acts on 2 qubits, got 3"),
                          (Gate("CNOT", (0,)), "CNOT acts on 2 qubits, got 1")):
        c = Circuit(3).h(0)
        c.gates.append(gate)
        for run in (sim.tableau_distribution, sim.exact_distribution,
                    lambda circuit: sim.tableau_run(circuit, 8, 1)):
            with pytest.raises(ValueError, match=message):
                run(c)


def test_hand_appended_gates_may_list_their_qubits():
    """``Gate.qubits`` is documented as a tuple, but every engine also takes
    a list, as the dense engine did before its gate plans were cached by
    qubits; a bad list is refused with ``Circuit``'s message."""
    listed, tupled = Circuit(3), Circuit(3)
    for name, qubits in (("H", [0]), ("CNOT", [0, 2]), ("CZ", [2, 1]), ("X", [1]), ("H", [2])):
        listed.gates.append(Gate(name, qubits))
        tupled.gates.append(Gate(name, tuple(qubits)))
    assert sim.exact_distribution(listed) == sim.exact_distribution(tupled)
    assert np.array_equal(sim._final_state(listed), sim._final_state(tupled))
    assert sim.tableau_distribution(listed) == sim.tableau_distribution(tupled)
    listed.gates.append(Gate("X", [3]))
    with pytest.raises(ValueError, match="qubit 3 out of range for 3 qubits"):
        sim.exact_distribution(listed)


def test_tableau_backends_refuse_17_random_measurements():
    """16 random measurements are the most either tableau path enumerates:
    2^16 outcomes are listed, and a 17th is refused by both alike."""
    c = Circuit(17)
    for q in range(16):
        c.h(q)
    dist = sim.tableau_distribution(c)
    assert len(dist) == 1 << 16 and set(dist.values()) == {2.0**-16}
    c.h(16)
    for run in (sim.tableau_distribution, lambda circuit: sim.tableau_run(circuit, 8, 1)):
        with pytest.raises(ValueError, match="span enumerates at most 16 vectors, got 17"):
            run(c)


def test_statevector_qubit_cap():
    with pytest.raises(ValueError):
        sim.exact_distribution(Circuit(17))


def test_shots_validation():
    with pytest.raises(ValueError):
        sim.tableau_run(Circuit(1), 0, 0)


def test_determinism_same_flags_same_counts():
    c = sim.random_clifford_circuit(5, 30, seed=77)
    a = sim.tableau_run(c, 300, 123)
    b = sim.tableau_run(c, 300, 123)
    assert a == b
    assert sim.tableau_run(c, 300, 124) != a  # seed actually matters


def test_counts_invariant_and_serialization():
    c = sim.random_clifford_circuit(4, 20, seed=5)
    counts = sim.tableau_run(c, 257, 11)
    assert sum(counts.counts.values()) == counts.total_shots == 257
    assert Counts.from_json(_counts_json(counts)) == counts
    assert Counts(dict(parse_count_rows(counts.to_csv()))) == counts
    assert counts.to_csv().splitlines()[0] == "outcome,count"
    assert counts.to_csv().splitlines()[1].startswith('"')


def _counts_json(counts):
    """Counts in the shape that a ``run`` report holds them."""
    return json.dumps({"total_shots": counts.total_shots, "counts": counts.counts})


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
    assert Counts.from_json(_counts_json(counts)) == counts
    assert Counts(dict(parse_count_rows(counts.to_csv()))) == counts


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


@pytest.mark.parametrize("tv, passed", [
    (sim.TV_TOLERANCE, True),
    (math.nextafter(sim.TV_TOLERANCE, 1), False),
])
def test_backend_equivalence_tolerance_is_inclusive(monkeypatch, tv, passed):
    """A total variation of exactly ``TV_TOLERANCE`` passes; the next float
    up fails every circuit."""
    monkeypatch.setattr(sim, "total_variation", lambda p, q: tv)
    report = sim.backend_equivalence(num_circuits=4, max_qubits=3, max_gates=5, seed=1)
    assert report["passed"] is passed
    assert report["worst_tv"] == tv
    assert [f["circuit"] for f in report["failures"]] == ([] if passed else [0, 1, 2, 3])


@PROPERTY
@given(st.integers(1, 10), st.integers(0, 60), st.integers(0, 1 << 62))
def test_tableau_distribution_is_uniform_on_2_to_the_r_outcomes(n, gates, seed):
    circuit = sim.random_clifford_circuit(n, gates, seed)
    r = len(outcome_map(n, sim._clifford_ops(circuit))[1])
    dist = sim.tableau_distribution(circuit)
    assert len(dist) == 2**r
    assert set(dist.values()) == {2.0**-r}
    assert sim.total_variation(dist, sim.exact_distribution(circuit)) < 1e-9


@PROPERTY
@given(st.integers(1, 64), st.integers(0, 60), st.integers(-(1 << 70), 1 << 70))
@example(64, 60, 21)  # r = 16, the widest support listed
@example(64, 60, 63)  # r = 17
@example(64, 60, 241)  # r = 18
def test_tableau_distribution_support_is_the_index_map_in_index_order(n, gates, seed):
    """The support, built by doubling, in insertion order: the outcome of
    each random-bit index 0..2^r-1, o0 XOR the cols of its set bits.  Past
    16 random measurements the distribution is refused instead."""
    circuit = sim.random_clifford_circuit(n, gates, seed)
    o0, cols = outcome_map(n, sim._clifford_ops(circuit))
    if len(cols) > 16:
        with pytest.raises(ValueError, match=f"span enumerates at most 16 vectors, got {len(cols)}"):
            sim.tableau_distribution(circuit)
        return
    prob = 0.5 ** len(cols)
    rendered = [(format(outcome_of_index(o0, cols, i), f"0{n}b")[::-1], prob)
                for i in range(1 << len(cols))]
    assert list(sim.tableau_distribution(circuit).items()) == rendered


@PROPERTY
@given(st.integers(1, 16), st.integers(0, 80), st.integers(0, 1 << 62),
       st.none() | st.floats(-0.9, 0.9))
def test_exact_distribution_equals_full_amplitude_scan(n, gates, circuit_seed, epsilon):
    circuit = sim.random_clifford_circuit(n, gates, circuit_seed)
    if epsilon is not None and n >= 2:
        circuit.unitary(groups.cz_epsilon(epsilon, "formula"), (0, n - 1))
    dist = sim.exact_distribution(circuit)
    assert list(dist.items()) == list(exact_distribution_reference(circuit).items())
    assert all(type(p) is float for p in dist.values())


def test_exact_distribution_full_16_qubit_support_equals_format_per_index_renderer():
    """All-H on 16 qubits: the largest support the dense engine can have."""
    circuit = Circuit(16)
    for q in range(16):
        circuit.h(q)
    dist = sim.exact_distribution(circuit)
    assert len(dist) == 1 << 16
    assert list(dist.items()) == list(exact_distribution_reference(circuit).items())
    assert all(type(p) is float for p in dist.values())


@PROPERTY
@given(st.integers(1, 16), st.integers(0, 120), st.integers(-(1 << 70), 1 << 70))
def test_random_clifford_circuit_equals_sample_based_generator(n, gates, seed):
    circuit = sim.random_clifford_circuit(n, gates, seed)
    reference = random_clifford_circuit_reference(n, gates, seed)
    assert circuit.num_qubits == n
    assert circuit.gates == reference.gates


@PROPERTY
@given(st.integers(1, 64), st.integers(0, 200), st.integers(-(1 << 70), 1 << 70))
def test_random_clifford_circuit_equals_choice_and_randrange_draws(n, gates, seed):
    """Every ``getrandbits`` loop draws what ``rnd.choice`` or ``rnd.randrange``
    would, at any width, including those past 21 qubits where pairs no
    longer match ``rnd.sample``."""
    circuit = sim.random_clifford_circuit(n, gates, seed)
    reference = random_clifford_circuit_draw_reference(n, gates, seed)
    assert circuit.num_qubits == n
    assert circuit.gates == reference.gates


def test_gate_cache_is_bounded():
    assert circuits._gate.cache_info().maxsize == circuits.GATE_CACHE_SIZE
    sim.random_clifford_circuit(64, 20_000, seed=3)  # more distinct gates than the cache holds
    assert circuits._gate.cache_info().currsize <= circuits.GATE_CACHE_SIZE


@pytest.mark.parametrize("n", range(2, 17))
def test_two_randrange_pair_is_the_pair_sample_draws(n):
    """``random_clifford_circuit`` draws a qubit pair as a = randrange(n),
    then j = randrange(n - 1) with b = j, or n - 1 where j == a.  That is how
    ``Random.sample`` picks 2 of at most 21 items; should a Python release
    change it, the generator's circuits change with it, and this test fails."""
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        a = ours.randrange(n)
        j = ours.randrange(n - 1)
        assert (a, n - 1 if j == a else j) == tuple(theirs.sample(range(n), 2))
        assert ours.getstate() == theirs.getstate()


_REFERENCE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}


def tensordot_reference(circuit):
    """The dense engine's definition: one ``tensordot`` + ``moveaxis`` per gate
    on the (2,) * n tensor, and dense operators renormalised."""
    n = circuit.num_qubits
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    for g in circuit.gates:
        matrix = g.matrix if g.name == "U" else _REFERENCE_MATRICES[g.name]
        k = len(g.qubits)
        tensor = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
        moved = np.tensordot(tensor, state, axes=(list(range(k, 2 * k)), list(g.qubits)))
        state = np.moveaxis(moved, list(range(k)), list(g.qubits))
        if g.name == "U":
            state = state / float(np.linalg.norm(state))
    return state.reshape(-1)


@st.composite
def dense_circuits(draw, dense_operators):
    """Gates over H/X/Z/CNOT/CZ with qubit 0 and qubit n - 1 drawn often, and
    optionally dense 1- and 2-qubit operators with random complex entries."""
    n = draw(st.integers(1, 9))
    qubit = st.sampled_from([0, n - 1]) | st.integers(0, n - 1)
    names = ["H", "X", "Z"] + (["CNOT", "CZ"] if n >= 2 else [])
    if dense_operators:
        names += ["U1"] + (["U2"] if n >= 2 else [])
    circuit = Circuit(n)
    for name in draw(st.lists(st.sampled_from(names), max_size=60)):
        a = draw(qubit)
        if name == "U1":
            circuit.unitary(_random_operator(2, draw(st.integers(0, 1 << 32))), (a,))
            continue
        if name in ("H", "X", "Z"):
            getattr(circuit, name.lower())(a)
            continue
        b = draw(qubit.filter(lambda q: q != a))
        if name == "U2":
            circuit.unitary(_random_operator(4, draw(st.integers(0, 1 << 32))), (a, b))
        else:
            getattr(circuit, name.lower())(a, b)
    return circuit


def _random_operator(dim, seed):
    parts = np.random.default_rng(seed).standard_normal((2, dim, dim))
    return parts[0] + 1j * parts[1]


def _assert_matches_reference(circuit):
    state = sim._final_state(circuit)
    reference = tensordot_reference(circuit)
    assert state.shape == (1 << circuit.num_qubits,)
    assert state.flags.c_contiguous
    assert np.array_equal(state, reference)  # == allows only signed zeros to differ
    assert np.array_equal(np.abs(state) ** 2, np.abs(reference) ** 2)


@PROPERTY
@given(dense_circuits(dense_operators=False))
def test_final_state_equals_tensordot_engine_on_clifford_circuits(circuit):
    _assert_matches_reference(circuit)


@PROPERTY
@given(dense_circuits(dense_operators=True))
def test_final_state_equals_tensordot_engine_with_dense_operators(circuit):
    _assert_matches_reference(circuit)


def test_final_state_both_cnot_and_cz_orientations_at_the_register_ends():
    for a, b in ((0, 4), (4, 0), (1, 3), (3, 1)):
        circuit = Circuit(5).h(0).h(4).h(1).x(3)
        circuit.cnot(a, b).cz(a, b).z(a).h(b)
        _assert_matches_reference(circuit)
    _assert_matches_reference(Circuit(1).x(0).h(0).z(0).x(0))


def test_final_state_strided_corners():
    """Views the engine leaves behind: a state reversed by a last X, a dense
    operator on reversed axes, and a 2-qubit operator in both qubit orders."""
    _assert_matches_reference(Circuit(1).x(0))
    _assert_matches_reference(Circuit(1).h(0).x(0))
    _assert_matches_reference(Circuit(3).h(1).x(0).x(2))
    for qubits in ((0, 2), (2, 0), (1, 2), (2, 1)):
        circuit = Circuit(3).h(0).h(1).x(qubits[0]).x(qubits[1])
        circuit.unitary(_random_operator(4, 11), qubits)
        _assert_matches_reference(circuit.x(qubits[1]))
        one = Circuit(3).h(1).x(qubits[0])
        one.unitary(_random_operator(2, 12), (qubits[0],))
        _assert_matches_reference(one)


# every H, X, Z, CNOT and CZ on 3 qubits, both orientations of each pair
_GATES_ON_3 = [(name, (q,)) for name in ("H", "X", "Z") for q in range(3)] + [
    (name, pair) for name in ("CNOT", "CZ") for pair in itertools.permutations(range(3), 2)]


@pytest.mark.parametrize("first", range(len(_GATES_ON_3) + 1))
def test_phase_frame_on_every_3_qubit_sequence_of_up_to_3_gates(first):
    """Every sequence of at most 3 gates (grouped by its first gate, the
    last group empty), then H on each qubit, which meets whatever Z and CZ
    terms the phase frame still holds.  The state with the frame applied is
    the tensordot engine's, and the distribution that never applies it is
    the full-scan renderer's on that state."""
    head = [_GATES_ON_3[first]] if first < len(_GATES_ON_3) else []
    tails = [()] + [tail for length in (1, 2) for tail in itertools.product(_GATES_ON_3, repeat=length)]
    for tail in tails if head else [()]:
        circuit = Circuit(3)
        for name, qubits in head + list(tail):
            getattr(circuit, name.lower())(*qubits)
        for q in range(3):
            circuit.h(q)
        sequence = head + list(tail)
        assert np.array_equal(sim._final_state(circuit), tensordot_reference(circuit)), sequence
        assert list(sim.exact_distribution(circuit).items()) == list(
            exact_distribution_reference(circuit).items()), sequence


def test_final_state_memory_stays_a_few_states():
    """One 12-qubit, 80-gate evolution holds a few 64 KB states at a time and
    keeps nothing but its result: its gate plans are index tuples, cached
    apart from any state, and so far smaller than one."""
    circuit = sim.random_clifford_circuit(12, 80, seed=8128)
    tracemalloc.start()
    try:
        state = sim._final_state(circuit)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.nbytes == 64 * 1024
    assert peak <= 6 * state.nbytes
    assert retained <= 2 * state.nbytes


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


def test_circuit_methods_share_one_gate_per_name_and_qubits():
    """Clifford gates come from the shared frozen cache, as in
    ``random_clifford_circuit``; a dense gate is built per call, and a bad
    qubit is refused before the cache sees it."""
    a, b = Circuit(3).x(1), Circuit(3).x(1)
    assert a.gates[0] is b.gates[0] == circuits.Gate("X", (1,))
    pairs = Circuit(3).h(0).z(2).cnot(0, 2).cz(2, 1), Circuit(3).h(0).z(2).cnot(0, 2).cz(2, 1)
    assert all(g is h for g, h in zip(pairs[0].gates, pairs[1].gates))
    g = sim.random_clifford_circuit(3, 40, 5).gates[0]
    assert getattr(Circuit(3), g.name.lower())(*g.qubits).gates[0] is g
    u, v = Circuit(1).unitary(np.eye(2), (0,)), Circuit(1).unitary(np.eye(2), (0,))
    assert u.gates[0] is not v.gates[0]
    misses = circuits._gate.cache_info().misses
    c = Circuit(3)
    for bad in (lambda: c.x(3), lambda: c.h(-1), lambda: c.cnot(1, 1), lambda: c.cz(0, 3)):
        with pytest.raises(ValueError):
            bad()
    assert c.gates == [] and circuits._gate.cache_info().misses == misses
