"""Two cross-validating circuit simulators plus shot sampling.

The tableau engine (``backend.kernels``) simulates Clifford circuits exactly
at up to 64 qubits.  Its outcomes are an affine map over GF(2) of the random
measurement bits (``_kernels_py.outcome_map``), which gives both the sampled
counts and the exact distribution: 2^r outcomes o0 ^ span(cols), each with
probability 2^-r.  The dense statevector engine (<= 16 qubits) is the
exactness oracle and additionally accepts dense 1- and 2-qubit operators.
Both sample measurements from the same counter-based per-shot streams
(vectorised by ``rng.first_words``), so identical (circuit, shots, seed)
always yields identical Counts.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

import numpy as np

from qgqec._kernels_py import outcome_map
from qgqec.backend import kernels
from qgqec.circuits import Circuit, Counts
from qgqec.rng import first_words

STATEVECTOR_QUBIT_CAP = 16
PROB_PRUNE = 1e-15

_OPCODE = {"H": 0, "X": 1, "Z": 2, "CNOT": 3, "CZ": 4}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_NAMED = {"H": _H, "X": _X, "Z": _Z, "CNOT": _CNOT, "CZ": _CZ}


def _clifford_ops(circuit: Circuit) -> list[tuple[int, int, int]]:
    ops = []
    for g in circuit.gates:
        if g.name not in _OPCODE:
            raise ValueError(f"non-Clifford gate {g.name!r} in circuit")
        a = g.qubits[0]
        b = g.qubits[1] if len(g.qubits) > 1 else 0
        ops.append((_OPCODE[g.name], a, b))
    return ops


def _render(outcome: int, n: int) -> str:
    """Bitstring with qubit 0 leftmost."""
    return format(outcome, f"0{n}b")[::-1]


def tableau_run(circuit: Circuit, shots: int, seed: int) -> Counts:
    """Exact Clifford simulation; measures all qubits each shot."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    ops = _clifford_ops(circuit)
    n = circuit.num_qubits
    outcomes = Counter(kernels.sample_shots(n, ops, shots, seed))
    return Counts({_render(out, n): count for out, count in outcomes.items()}, shots)


def tableau_distribution(circuit: Circuit) -> dict[str, float]:
    """Analytic outcome probabilities from the tableau's outcome map.

    The support is o0 ^ span(cols), 2^r outcomes of probability 2^-r each,
    so the result is exact (dyadic) in floating point.
    """
    ops = _clifford_ops(circuit)
    n = circuit.num_qubits
    root = kernels.TableauEngine(n)
    root.apply(ops)
    o0, cols = outcome_map(root)
    support = [o0]
    for col in cols:
        support += [out ^ col for out in support]
    prob = 0.5 ** len(cols)
    dist: dict[str, float] = defaultdict(float)
    for out in support:
        dist[_render(out, n)] += prob
    return dict(dist)


# -- dense statevector ------------------------------------------------------


def _apply_dense(state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...]):
    k = len(qubits)
    tensor = matrix.reshape((2,) * (2 * k))
    moved = np.tensordot(tensor, state, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(moved, list(range(k)), list(qubits))


def _final_state(circuit: Circuit) -> np.ndarray:
    n = circuit.num_qubits
    if n > STATEVECTOR_QUBIT_CAP:
        raise ValueError(
            f"{n} qubits exceeds the statevector cap of {STATEVECTOR_QUBIT_CAP}"
        )
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    for g in circuit.gates:
        matrix = g.matrix if g.name == "U" else _NAMED[g.name]
        state = _apply_dense(state, np.asarray(matrix, dtype=complex), g.qubits)
        if g.name == "U":
            norm = float(np.linalg.norm(state))
            if norm == 0.0:
                raise ValueError("state annihilated by a dense operator")
            state = state / norm
    return state


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """|amplitude|^2 per basis state, pruned below 1e-15."""
    flat = _final_state(circuit).reshape(-1)
    n = circuit.num_qubits
    probs = np.abs(flat) ** 2
    return {
        format(idx, f"0{n}b"): float(probs[idx])
        for idx in np.flatnonzero(probs > PROB_PRUNE).tolist()
    }


def statevector_run(circuit: Circuit, shots: int, seed: int) -> Counts:
    """Exact amplitude evolution, sampled with the shared per-shot streams.

    Shot s draws u = (first word >> 11) * 2^-53, the first ``next_float`` of
    its stream, and lands on the first basis state whose cumulative
    probability exceeds u.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    flat = _final_state(circuit).reshape(-1)
    n = circuit.num_qubits
    cumulative = np.cumsum(np.abs(flat) ** 2)
    cumulative /= cumulative[-1]
    u = (first_words(seed, shots) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    idx = np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)
    states, counts = np.unique(idx, return_counts=True)
    return Counts(
        {format(int(i), f"0{n}b"): int(c) for i, c in zip(states, counts)}, shots
    )


# -- cross-validation -------------------------------------------------------


def random_clifford_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    rnd = random.Random(seed)
    c = Circuit(num_qubits)
    one_q = ["H", "X", "Z"]
    names = one_q + (["CNOT", "CZ"] if num_qubits >= 2 else [])
    for _ in range(num_gates):
        name = rnd.choice(names)
        if name in ("CNOT", "CZ"):
            a, b = rnd.sample(range(num_qubits), 2)
            getattr(c, name.lower())(a, b)
        else:
            getattr(c, name.lower())(rnd.randrange(num_qubits))
    return c


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def backend_equivalence(
    num_circuits: int = 200,
    max_qubits: int = 8,
    max_gates: int = 40,
    seed: int = 20240,
    tolerance: float = 1e-9,
) -> dict:
    """Compare tableau-derived probabilities against the dense oracle on
    seeded random Clifford circuits.  Returns a summary report."""
    worst = 0.0
    failures = []
    for i in range(num_circuits):
        rnd = random.Random(seed * 1_000_003 + i)
        n = rnd.randint(1, max_qubits)
        g = rnd.randint(1, max_gates)
        circuit = random_clifford_circuit(n, g, seed=rnd.randrange(1 << 62))
        tv = total_variation(tableau_distribution(circuit), exact_distribution(circuit))
        worst = max(worst, tv)
        if tv > tolerance:
            failures.append({"circuit": i, "qubits": n, "gates": g, "tv": tv})
    return {
        "circuits": num_circuits,
        "worst_tv": worst,
        "tolerance": tolerance,
        "failures": failures,
        "passed": not failures,
    }
