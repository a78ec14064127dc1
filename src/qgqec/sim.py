"""Two cross-validating circuit simulators plus shot sampling.

The tableau engine (``backend.kernels``) simulates Clifford circuits exactly
at up to 64 qubits.  Its outcomes are an affine map over GF(2) of the random
measurement bits (``kernels.outcome_map``), which gives both the sampled
counts and the exact distribution: 2^r outcomes o0 ^ span(cols), each with
probability 2^-r.  The dense statevector engine (<= 16 qubits) is the
exactness oracle and additionally accepts dense 1- and 2-qubit operators.
It keeps a flat vector of 2^n amplitudes: X and CNOT move amplitudes into
one copy, Z and CZ negate them in place, through strided views and with no
arithmetic.  H and dense operators transpose one small view of the vector,
(2^q, 2, rest) for a qubit q and (2^i, 2, 2^(j-i-1), 2, rest) for qubits
i < j, so that the gate's qubits come first.  That gives, element for
element, the contiguous operand that ``np.tensordot`` builds from the
(2,) * n tensor, so the one ``np.dot`` it would make, and the norm that
renormalises a dense operator (summed in the same memory order), round
alike: the amplitudes equal those of a ``tensordot``-per-gate engine bit
for bit (up to the sign of zeros).
Both sample measurements from the same counter-based per-shot streams
(vectorised by ``rng.first_words``), so identical (circuit, shots, seed)
always yields identical Counts.  Both take shots ``kernels.SHOT_CHUNK`` at a
time and keep only a histogram across chunks, so memory stays bounded at any
shot count.  ``tableau_run`` renders one bitstring per distinct outcome,
inserted in ascending random-bit index order; every serialiser sorts its
keys, so the order never reaches the output.  ``exact_distribution``, whose
support may reach 2^16 states, renders all its keys in one numpy pass.
"""

from __future__ import annotations

import random

import numpy as np

from qgqec.backend import kernels
from qgqec.circuits import Circuit, Counts, Gate
from qgqec.rng import first_words

STATEVECTOR_QUBIT_CAP = 16
PROB_PRUNE = 1e-15

_OPCODE = {"H": kernels.OP_H, "X": kernels.OP_X, "Z": kernels.OP_Z,
           "CNOT": kernels.OP_CNOT, "CZ": kernels.OP_CZ}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_INDEX_GATES = ("X", "Z", "CNOT", "CZ")


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
    outcomes = kernels.sample_shots(n, ops, shots, seed)
    return Counts({_render(out, n): count for out, count in outcomes.items()}, shots)


def tableau_distribution(circuit: Circuit) -> dict[str, float]:
    """Analytic outcome probabilities from the tableau's outcome map.

    The support is o0 ^ span(cols), 2^r distinct outcomes of probability
    2^-r each (``kernels.outcomes_of`` of every random-bit index), so the
    result is exact (dyadic) in floating point.
    """
    ops = _clifford_ops(circuit)
    n = circuit.num_qubits
    root = kernels.TableauEngine(n)
    root.apply(ops)
    o0, cols = kernels.outcome_map(root)
    support = kernels.outcomes_of(o0, cols, np.arange(1 << len(cols), dtype=np.uint64))
    prob = 0.5 ** len(cols)
    return {_render(out, n): prob for out in support.tolist()}


# -- dense statevector ------------------------------------------------------


def _apply_index_gate(state: np.ndarray, name: str, qubits: tuple[int, ...]) -> np.ndarray:
    """X, Z, CNOT or CZ on the flat state, with no arithmetic: X and CNOT
    move amplitudes into one copy, Z and CZ negate them in `state` itself.
    Qubit q is axis q of the (2,) * n view, so it is the middle axis of the
    (2^q, 2, rest) view."""
    if name == "X":
        # copy(): at n = 1 the reshape alone returns a reversed view, and
        # np.abs rounds differently on strided input
        return state.reshape(1 << qubits[0], 2, -1)[:, ::-1].copy().reshape(-1)
    if name == "Z":
        view = state.reshape(1 << qubits[0], 2, -1)[:, 1]
        np.negative(view, out=view)
        return state
    a, b = qubits
    i, j = min(a, b), max(a, b)
    shape = (1 << i, 2, 1 << (j - i - 1), 2, -1)
    if name == "CZ":
        view = state.reshape(shape)[:, 1, :, 1]
        np.negative(view, out=view)
        return state
    out = state.copy()
    view = out.reshape(shape)
    if a < b:  # CNOT, control on the outer axis
        view[:, 1] = state.reshape(shape)[:, 1, :, ::-1]
    else:
        view[:, :, :, 1] = state.reshape(shape)[:, ::-1, :, 1]
    return out


def _apply_matrix(state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...],
                  normalise: bool) -> np.ndarray:
    """The dot that ``np.tensordot`` makes: the gate's axes moved to the front,
    the rest kept in order, and one ``np.dot`` of the (2^k, 2^k) operator with
    the (2^k, rest) operand; then the axes moved back.

    Qubit q is the middle axis of the 3-axis view (2^q, 2, rest), and qubits
    i < j are axes 1 and 3 of the 5-axis view (2^i, 2, 2^(j-i-1), 2, rest),
    so one transpose of that view, the gate's axes first in gate order,
    reshapes to the operand that transposing the (2,) * n tensor gives,
    element for element.  Same call on the same operands, so the same bits;
    the inverse permutation moves the axes back."""
    if len(qubits) == 1:
        moved = state.reshape(1 << qubits[0], 2, -1).transpose(1, 0, 2)
        back = (1, 0, 2)
    else:
        a, b = qubits
        i, j = min(a, b), max(a, b)
        view = state.reshape(1 << i, 2, 1 << (j - i - 1), 2, -1)
        if a < b:
            moved, back = view.transpose(1, 3, 0, 2, 4), (2, 0, 3, 1, 4)
        else:
            moved, back = view.transpose(3, 1, 0, 2, 4), (2, 1, 3, 0, 4)
    product = np.dot(matrix, moved.reshape(1 << len(qubits), -1))
    if normalise:
        # norm sums in memory order, which for the product is the order the
        # tensordot engine's moved-axes state had, so the sum rounds alike
        norm = float(np.linalg.norm(product))
        if norm == 0.0:
            raise ValueError("state annihilated by a dense operator")
        product = product / norm
    return product.reshape(moved.shape).transpose(back).reshape(-1)


def _final_state(circuit: Circuit) -> np.ndarray:
    """Flat amplitude vector; qubit 0 is the most significant index bit.
    The vector is this function's own, so gates may overwrite it."""
    n = circuit.num_qubits
    if n > STATEVECTOR_QUBIT_CAP:
        raise ValueError(
            f"{n} qubits exceeds the statevector cap of {STATEVECTOR_QUBIT_CAP}"
        )
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for g in circuit.gates:
        if g.name == "H":
            state = _apply_matrix(state, _H, g.qubits, normalise=False)
        elif g.name == "U":
            matrix = np.ascontiguousarray(g.matrix, dtype=complex)
            state = _apply_matrix(state, matrix, g.qubits, normalise=True)
        elif g.name in _INDEX_GATES:
            state = _apply_index_gate(state, g.name, g.qubits)
        else:
            raise ValueError(f"unknown gate {g.name!r} in circuit")
    return state


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """|amplitude|^2 per basis state, pruned below 1e-15, in ascending
    basis-state order.  Keys are rendered for the whole support at once: one
    row of '0'/'1' bytes per index, qubit 0 leftmost, read as a string."""
    flat = _final_state(circuit)
    n = circuit.num_qubits
    probs = np.abs(flat) ** 2
    idx = np.flatnonzero(probs > PROB_PRUNE)
    # n <= 16: each index as two big-endian bytes unpacks to its 16 bits,
    # most significant first, of which the last n are qubits 0..n-1
    bits = np.unpackbits(idx.astype(">u2").view(np.uint8)).reshape(-1, 16)
    keys = (bits[:, 16 - n:] | ord("0")).view(f"S{n}").ravel().astype(f"U{n}").tolist()
    return dict(zip(keys, probs[idx].tolist()))


def statevector_run(circuit: Circuit, shots: int, seed: int) -> Counts:
    """Exact amplitude evolution, sampled with the shared per-shot streams.

    Shot s draws u = (first word >> 11) * 2^-53, the first ``next_float`` of
    its stream, and lands on the first basis state whose cumulative
    probability exceeds u.  Shots are taken ``kernels.SHOT_CHUNK`` at a time
    and counted into one array of 2^n counts, so memory is bounded at any
    shot count; keys come out in ascending basis-state order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    flat = _final_state(circuit)
    n = circuit.num_qubits
    cumulative = np.cumsum(np.abs(flat) ** 2)
    cumulative /= cumulative[-1]
    totals = np.zeros(len(cumulative), dtype=np.int64)
    for start in range(0, shots, kernels.SHOT_CHUNK):
        words = first_words(seed, min(kernels.SHOT_CHUNK, shots - start), start)
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        idx = np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)
        totals += np.bincount(idx, minlength=len(cumulative))
    states = np.flatnonzero(totals)
    return Counts(
        {format(i, f"0{n}b"): c for i, c in zip(states.tolist(), totals[states].tolist())}, shots
    )


# -- cross-validation -------------------------------------------------------


def random_clifford_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """Uniform gate names over H, X, Z (and CNOT, CZ from 2 qubits), uniform
    qubits.  A pair is drawn as a = randrange(n), then j = randrange(n - 1)
    with b = j, or n - 1 where j == a: the draws ``rnd.sample(range(n), 2)``
    makes for n <= 21, so those circuits are the ones it gave (wider
    registers, which ``backends-check`` never draws, get other, equally
    uniform pairs).  Drawn qubits are in range and distinct by construction,
    so gates go straight onto the list."""
    rnd = random.Random(seed)
    n = num_qubits
    c = Circuit(n)
    names = ["H", "X", "Z"] + (["CNOT", "CZ"] if n >= 2 else [])
    gates = c.gates
    for _ in range(num_gates):
        name = rnd.choice(names)
        a = rnd.randrange(n)
        if name in ("CNOT", "CZ"):
            j = rnd.randrange(n - 1)
            gates.append(Gate(name, (a, n - 1 if j == a else j)))
        else:
            gates.append(Gate(name, (a,)))
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
