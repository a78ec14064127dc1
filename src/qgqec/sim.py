"""Two cross-validating circuit simulators plus shot sampling.

The tableau engine (``backend.kernels``) simulates Clifford circuits exactly
at up to 64 qubits.  Its outcomes are an affine map over GF(2) of the random
measurement bits (``kernels.outcome_map``), whose support o0 ^ span(cols),
2^r outcomes of probability 2^-r each listed by ``gf2.span`` (which refuses
r > 16), gives both the sampled counts and the exact distribution.
``tableau_run`` samples from counter-based per-shot streams through
``kernels.sample_shots`` (its memo, Pauli-frame fold and chunking are
documented there), so identical (circuit, shots, seed) always yields
identical Counts in bounded memory.  It renders one bitstring per distinct
outcome, inserted in ascending random-bit index order; every serialiser
sorts its keys, so the order never reaches the output.

The dense statevector engine (<= 16 qubits) is the exactness oracle and
additionally accepts dense 1- and 2-qubit operators; it gives exact
distributions only.  It keeps the 2^n amplitudes as a (2,) * n view, axis
q for qubit q, which may be reversed or transposed: X reverses its axis (no
copy), Z and CZ negate the view where their qubits are 1, and CNOT assigns
the control-1 half from its target-reversed view, none of which rounds.  H
and dense operators copy the view, transposed so that the gate's qubits
come first and the rest ascend, into one contiguous operand: the one that
``np.tensordot`` builds from the (2,) * n tensor.  So the one ``np.dot`` it
would make, and the norm that renormalises a dense operator (summed in the
same memory order), round alike: the amplitudes equal those of a
``tensordot``-per-gate engine bit for bit (up to the sign of zeros).  The
product stays as a view transposed back to qubit order.
``exact_distribution``, whose support may reach 2^16 states, renders all
its keys in one numpy pass.
"""

from __future__ import annotations

import random

import numpy as np

from qgqec import gf2
from qgqec.backend import kernels
from qgqec.circuits import PROB_PRUNE, STATEVECTOR_QUBIT_CAP, Circuit, Counts, _gate

TV_TOLERANCE = 1e-9  # largest total variation backend_equivalence accepts

# (name, qubit count) -> opcode of each gate the tableau takes; the dense
# engine also takes U on 1 or 2 qubits
_OPCODE = {("H", 1): kernels.OP_H, ("X", 1): kernels.OP_X, ("Z", 1): kernels.OP_Z,
           ("CNOT", 2): kernels.OP_CNOT, ("CZ", 2): kernels.OP_CZ}
_DENSE_GATES = frozenset(_OPCODE) | {("U", 1), ("U", 2)}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_ALL = slice(None)
_REV = slice(None, None, -1)
_AXES = tuple(range(STATEVECTOR_QUBIT_CAP))


def _refuse(circuit: Circuit, gate, shapes, unknown: str) -> None:
    """Raise the ValueError for a hand-appended gate: one whose (name, qubit
    count) is not in `shapes`, or whose qubits ``Circuit`` refuses."""
    counts = [k for name, k in sorted(shapes) if name == gate.name]
    if len(gate.qubits) in counts:
        circuit._check(*gate.qubits)
    raise ValueError(f"{gate.name} acts on {' or '.join(map(str, counts))} qubit{'s' * (counts != [1])}"
                     f", got {len(gate.qubits)}" if counts else f"{unknown} {gate.name!r} in circuit")


def _clifford_ops(circuit: Circuit) -> list[tuple[int, int, int]]:
    ops = []
    for g in circuit.gates:
        qubits = g.qubits
        code = _OPCODE.get((g.name, len(qubits)))
        if code is None:
            _refuse(circuit, g, _OPCODE, "non-Clifford gate")
        ops.append((code, qubits[0], qubits[1] if len(qubits) > 1 else 0))
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
    """Analytic outcome probabilities: the support o0 ^ span(cols) of
    ``kernels.outcome_map``, 2^r outcomes of probability 2^-r each, so the
    result is exact (dyadic) in floating point.  ``gf2.span`` lists them in
    random-bit index order, the support that ``kernels.sample_shots`` reads
    its counts against; both refuse the same ops, and r > 16.
    """
    n = circuit.num_qubits
    o0, cols = kernels.outcome_map(n, _clifford_ops(circuit))
    prob = 0.5 ** len(cols)
    return {_render(out, n): prob for out in gf2.span(cols, o0)}


# -- dense statevector ------------------------------------------------------


def _apply_matrix(t: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...],
                  normalise: bool) -> np.ndarray:
    """The dot that ``np.tensordot`` makes: one ``np.dot`` of the (2^k, 2^k)
    operator with a contiguous copy of the (2,) * n state transposed so that
    the gate's axes come first, in gate order, and the rest ascend.  That is
    the operand ``tensordot`` builds, so the same call gives the same bits.
    The product comes back as a view transposed to qubit order."""
    n = t.ndim
    if len(qubits) == 1:
        q = qubits[0]
        order = (q,) + _AXES[:q] + _AXES[q + 1:n]
        back = _AXES[1:q + 1] + (0,) + _AXES[q + 1:n]
    else:
        i, j = sorted(qubits)
        order = qubits + _AXES[:i] + _AXES[i + 1:j] + _AXES[j + 1:n]
        back = [0] * n
        for axis, q in enumerate(order):
            back[q] = axis
    operand = np.ascontiguousarray(t.transpose(order)).reshape(len(matrix), -1)
    product = np.dot(matrix, operand)
    if normalise:
        # norm sums in memory order, which for the product is the order the
        # tensordot engine's moved-axes state had, so the sum rounds alike
        norm = float(np.linalg.norm(product))
        if norm == 0.0:
            raise ValueError("state annihilated by a dense operator")
        product = product / norm
    return product.reshape(t.shape).transpose(back)


def _final_state(circuit: Circuit) -> np.ndarray:
    """Flat C-contiguous amplitude vector; qubit 0 is the most significant
    index bit.

    The state is a (2,) * n view, axis q for qubit q, of a buffer this
    function owns, so gates may overwrite it.  X reverses its axis (a view,
    no copy); Z and CZ negate the view where their qubits are 1; CNOT
    assigns the control-1 half from its target-reversed view; H and dense
    operators go through ``_apply_matrix``.  A hand-appended gate that no
    ``Circuit`` method would make raises ValueError first (``_refuse``)."""
    n = circuit.num_qubits
    if n > STATEVECTOR_QUBIT_CAP:
        raise ValueError(
            f"{n} qubits exceeds the statevector cap of {STATEVECTOR_QUBIT_CAP}"
        )
    t = np.zeros((2,) * n, dtype=complex)
    t[(0,) * n] = 1.0
    for g in circuit.gates:
        name, qubits = g.name, g.qubits
        if ((name, len(qubits)) not in _DENSE_GATES or not (0 <= qubits[0] < n and 0 <= qubits[-1] < n)
                or len(qubits) == 2 and qubits[0] == qubits[1]):
            _refuse(circuit, g, _DENSE_GATES, "unknown gate")
        if name == "H":
            t = _apply_matrix(t, _H, qubits, normalise=False)
        elif name == "X":
            t = t[(_ALL,) * qubits[0] + (_REV,)]
        elif name == "Z":
            view = t[(_ALL,) * qubits[0] + (1, ...)]
            np.negative(view, out=view)
        elif name == "CNOT":
            a, b = qubits
            if a < b:
                half = (_ALL,) * a + (1,)
                t[half] = t[half + (_ALL,) * (b - a - 1) + (_REV,)]
            else:
                t[(_ALL,) * a + (1,)] = t[(_ALL,) * b + (_REV,) + (_ALL,) * (a - b - 1) + (1,)]
        elif name == "CZ":
            a, b = qubits
            i, j = (a, b) if a < b else (b, a)
            view = t[(_ALL,) * i + (1,) + (_ALL,) * (j - i - 1) + (1, ...)]
            np.negative(view, out=view)
        else:  # U
            matrix = np.ascontiguousarray(g.matrix, dtype=complex)
            t = _apply_matrix(t, matrix, qubits, normalise=True)
    # a view may be reversed or transposed; np.abs rounds differently on
    # strided input, so the result is made contiguous
    return np.ascontiguousarray(t).reshape(-1)


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """|amplitude|^2 per basis state, pruned at ``PROB_PRUNE``, in ascending
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


# -- cross-validation -------------------------------------------------------


def random_clifford_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """Uniform gate names over H, X, Z (and CNOT, CZ from 2 qubits), uniform
    qubits: per gate, name = rnd.choice(names) and a = rnd.randrange(n), and
    for a pair j = rnd.randrange(n - 1), with b = j, or n - 1 where j == a
    (the draws ``rnd.sample(range(n), 2)`` makes for n <= 21).

    Each draw below m is made as ``Random._randbelow`` makes it: k =
    m.bit_length(), then ``getrandbits(k)`` until the value is below m, so
    the circuits are the ones those calls give, without their per-call
    overhead.  Drawn qubits are in range and distinct by construction, and
    gates are frozen, so each comes from a bounded cache of shared ``Gate``
    instances straight onto the list."""
    getrandbits = random.Random(seed).getrandbits
    n = num_qubits
    c = Circuit(n)
    names = ("H", "X", "Z", "CNOT", "CZ") if n >= 2 else ("H", "X", "Z")
    kinds = len(names)
    k_name, k_qubit, k_other = kinds.bit_length(), n.bit_length(), (n - 1).bit_length()
    gates = c.gates
    for _ in range(num_gates):
        i = getrandbits(k_name)
        while i >= kinds:
            i = getrandbits(k_name)
        a = getrandbits(k_qubit)
        while a >= n:
            a = getrandbits(k_qubit)
        if i < 3:
            gates.append(_gate(names[i], (a,)))
            continue
        j = getrandbits(k_other)
        while j >= n - 1:
            j = getrandbits(k_other)
        gates.append(_gate(names[i], (a, n - 1 if j == a else j)))
    return c


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def backend_equivalence(num_circuits: int, max_qubits: int, max_gates: int, seed: int) -> dict:
    """Compare tableau-derived probabilities against the dense oracle on
    seeded random Clifford circuits; a circuit fails when their total
    variation exceeds ``TV_TOLERANCE``.  Returns a summary report."""
    worst = 0.0
    failures = []
    for i in range(num_circuits):
        rnd = random.Random(seed * 1_000_003 + i)
        n = rnd.randint(1, max_qubits)
        g = rnd.randint(1, max_gates)
        circuit = random_clifford_circuit(n, g, seed=rnd.randrange(1 << 62))
        tv = total_variation(tableau_distribution(circuit), exact_distribution(circuit))
        worst = max(worst, tv)
        if tv > TV_TOLERANCE:
            failures.append({"circuit": i, "qubits": n, "gates": g, "tv": tv})
    return {
        "circuits": num_circuits,
        "worst_tv": worst,
        "tolerance": TV_TOLERANCE,
        "failures": failures,
        "passed": not failures,
    }
