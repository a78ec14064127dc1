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
q for qubit q, which may be reversed or transposed, and looks each gate up
in one cached plan per (n, name, qubits) (``_plan``) that holds only index
tuples.  Z and CZ never touch the array: they update a phase frame of
Python ints (a Z mask, a CZ adjacency mask per qubit and a sign), which X
and CNOT conjugate and which H and dense operators apply where they need
it; qubits still in a basis state let CNOT, H and the frame skip work
(``_evolve``).  X reverses its axis (no copy) and CNOT assigns the
control-1 half from its target-reversed view; neither rounds, nor does a
negation.  H and dense operators copy the view, transposed so that the
gate's qubits come first and the rest ascend, into one contiguous operand:
the one that ``np.tensordot`` builds from the (2,) * n tensor.  So the one
``np.dot`` it would make, and the norm that renormalises a dense operator
(summed in the same memory order), round alike: ``_final_state``, which
applies the frame left at the end, equals a ``tensordot``-per-gate engine
bit for bit (up to the sign of zeros).  ``exact_distribution`` leaves that
frame unapplied, since it only changes signs, and renders all its keys,
whose support may reach 2^16 states, in one numpy pass.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from qgqec import gf2
from qgqec.backend import kernels
from qgqec.circuits import GATE_CACHE_SIZE, PROB_PRUNE, STATEVECTOR_QUBIT_CAP, Circuit, Counts, _gate

TV_TOLERANCE = 1e-9  # largest total variation backend_equivalence accepts

# (name, qubit count) -> opcode of each gate the tableau takes; the dense
# engine also takes U on 1 or 2 qubits
_OPCODE = {("H", 1): kernels.OP_H, ("X", 1): kernels.OP_X, ("Z", 1): kernels.OP_Z,
           ("CNOT", 2): kernels.OP_CNOT, ("CZ", 2): kernels.OP_CZ}
_DENSE_GATES = frozenset(_OPCODE) | {("U", 1), ("U", 2)}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_HZ = _H * np.array([1, -1])  # H Z: H with its second column negated
_ALL = slice(None)
_REV = slice(None, None, -1)


def _refuse(n: int, name: str, qubits: tuple[int, ...], shapes, unknown: str) -> None:
    """Raise the ValueError for a hand-appended gate on n qubits: one whose
    (name, qubit count) is not in `shapes`, or whose qubits ``Circuit``
    refuses."""
    counts = [k for shape, k in sorted(shapes) if shape == name]
    if len(qubits) in counts:
        Circuit(n)._check(*qubits)
    raise ValueError(f"{name} acts on {' or '.join(map(str, counts))} qubit{'s' * (counts != [1])}"
                     f", got {len(qubits)}" if counts else f"{unknown} {name!r} in circuit")


def _clifford_ops(circuit: Circuit) -> list[tuple[int, int, int]]:
    ops = []
    for g in circuit.gates:
        qubits = g.qubits
        code = _OPCODE.get((g.name, len(qubits)))
        if code is None:
            _refuse(circuit.num_qubits, g.name, qubits, _OPCODE, "non-Clifford gate")
        ops.append((code, qubits[0], qubits[1] if len(qubits) > 1 else 0))
    return ops


def tableau_run(circuit: Circuit, shots: int, seed: int) -> Counts:
    """Exact Clifford simulation; measures all qubits each shot."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    ops = _clifford_ops(circuit)
    n = circuit.num_qubits
    outcomes = kernels.sample_shots(n, ops, shots, seed)
    spec = f"0{n}b"  # reversed, so that qubit 0 is leftmost
    return Counts({format(out, spec)[::-1]: count for out, count in outcomes.items()}, shots)


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
    spec = f"0{n}b"  # reversed, so that qubit 0 is leftmost
    return {format(out, spec)[::-1]: prob for out in gf2.span(cols, o0)}


# -- dense statevector ------------------------------------------------------


@lru_cache(maxsize=GATE_CACHE_SIZE)
def _plan(n: int, name: str, qubits: tuple[int, ...]) -> tuple:
    """The index tuples that gate (name, qubits) needs on a (2,) * n view:
    for X the axis-reversing view, for Z the qubit-1 half, for CNOT the
    control-1 half and its target-reversed source, for CZ the quarter where
    both qubits are 1, and for H and U the axis order that puts the gate's
    qubits first (in gate order, the rest ascending) and the order back; H
    adds the qubit-0 and the qubit-1 slice of its axis.  A gate no
    ``Circuit`` method would make raises ValueError (``_refuse``); a raised
    call is not cached."""
    if ((name, len(qubits)) not in _DENSE_GATES or not all(0 <= q < n for q in qubits)
            or len(qubits) == 2 and qubits[0] == qubits[1]):
        _refuse(n, name, qubits, _DENSE_GATES, "unknown gate")
    if name == "X":
        return (_ALL,) * qubits[0] + (_REV,)
    if name == "Z":
        return (_ALL,) * qubits[0] + (1, ...)
    if name == "CNOT":
        a, b = qubits
        if a < b:
            half = (_ALL,) * a + (1,)
            return half, half + (_ALL,) * (b - a - 1) + (_REV,)
        return (_ALL,) * a + (1,), (_ALL,) * b + (_REV,) + (_ALL,) * (a - b - 1) + (1,)
    if name == "CZ":
        i, j = sorted(qubits)
        return (_ALL,) * i + (1,) + (_ALL,) * (j - i - 1) + (1, ...)
    order = qubits + tuple(q for q in range(n) if q not in qubits)
    back = [0] * n
    for axis, q in enumerate(order):
        back[q] = axis
    if name == "U":
        return order, tuple(back)
    p = qubits[0]
    return order, tuple(back), ((_ALL,) * p + (slice(0, 1),), (_ALL,) * p + (slice(1, 2),))


def _apply_matrix(t: np.ndarray, matrix: np.ndarray, order: tuple, back: tuple,
                  normalise: bool) -> np.ndarray:
    """The dot that ``np.tensordot`` makes: one ``np.dot`` of the (2^k, 2^k)
    operator with a contiguous copy of the (2,) * n state transposed to
    `order`, the gate's axes first, in gate order, and the rest ascending.
    That is the operand ``tensordot`` builds, so the same call gives the
    same bits.  The product comes back as a view transposed to qubit order
    by `back`."""
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


def _bits_of(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _negate(t: np.ndarray, index: tuple) -> None:
    view = t[index]
    np.negative(view, out=view)


def _apply_frame(t: np.ndarray, zmask: int, cz: list[int], sign: int) -> None:
    """Negate `t` in place where the phase frame is -1."""
    n = t.ndim
    for q in _bits_of(zmask):
        _negate(t, _plan(n, "Z", (q,)))
    for a in range(n):
        for b in _bits_of(cz[a] & -2 << a):  # each edge once, from its lower qubit
            _negate(t, _plan(n, "CZ", (a, b)))
    if sign:
        np.negative(t, out=t)


def _evolve(circuit: Circuit) -> tuple[np.ndarray, tuple[int, list[int], int]]:
    """The final state as a (2,) * n view, axis q for qubit q, and the phase
    frame still to be applied to it: (Z mask, CZ adjacency per qubit as a
    bit mask, global sign bit), the diagonal +-1 operator
    (-1)^(sign + Z mask . x + sum over CZ edges of x_a x_b).

    Each gate's index tuples come from ``_plan``.  Z and CZ only update the
    frame.  X reverses its axis (a view, no copy) and CNOT assigns the
    control-1 half from its target-reversed view; each then conjugates the
    frame: X on p flips the sign where Z_p is pending and turns each CZ
    term on p into a Z on its other qubit, and CNOT a -> b moves a pending
    Z_b and each CZ term (b, c) onto a as well, a CZ term (a, b) giving Z_a.
    H on p negates the quarters of the frame's CZ terms on p and then
    multiplies by H, or by H Z = [[h, -h], [h, h]] where Z_p is pending:
    its products are those of H on the negated half up to sign, so they
    round alike.  A dense operator first applies the whole frame.

    A qubit that no H or dense operator has touched, and that no CNOT has
    targeted from a control outside a basis state, is in a basis state, 0
    or 1 as X and CNOT flipped it, and the other half of its axis holds
    only zeros.  So a CNOT with such a
    control is nothing or an X on its target, a CZ term on such a qubit is
    nothing or a Z on the other qubit, and H (or H Z) on such a qubit is h
    times its nonzero half on both halves, up to a Z on it and a sign that
    the frame takes: the terms the dot would add are exact zeros.

    None of the permutations and negations rounds, so the frame applied
    gives the amplitudes of a ``tensordot``-per-gate engine bit for bit (up
    to the sign of zeros)."""
    n = circuit.num_qubits
    if n > STATEVECTOR_QUBIT_CAP:
        raise ValueError(
            f"{n} qubits exceeds the statevector cap of {STATEVECTOR_QUBIT_CAP}"
        )
    t = np.zeros((2,) * n, dtype=complex)
    t[(0,) * n] = 1.0
    zmask = sign = 0
    cz = [0] * n
    basis, ones = (1 << n) - 1, 0  # qubits in a basis state, and those at 1
    for g in circuit.gates:
        name, qubits = g.name, g.qubits
        try:
            plan = _plan(n, name, qubits)
        except TypeError:  # a hand-appended gate's qubits may be a list
            qubits = tuple(qubits)
            plan = _plan(n, name, qubits)
        if name == "Z":
            zmask ^= 1 << qubits[0]
        elif name == "CZ":
            a, b = qubits
            cz[a] ^= 1 << b
            cz[b] ^= 1 << a
        elif name == "X":
            t = t[plan]
            p = qubits[0]
            ones ^= 1 << p
            sign ^= zmask >> p & 1
            zmask ^= cz[p]
        elif name == "CNOT":
            a, b = qubits
            if not basis >> a & 1:
                t[plan[0]] = t[plan[1]]
                basis &= ~(1 << b)
            elif ones >> a & 1:
                t = t[_plan(n, "X", (b,))]
                ones ^= 1 << b
            zmask ^= (zmask >> b & 1) << a
            others = cz[b]
            if others >> a & 1:
                zmask ^= 1 << a
                others ^= 1 << a
            if others:
                cz[a] ^= others
                for c in _bits_of(others):
                    cz[c] ^= 1 << a
        elif name == "H":
            p = qubits[0]
            bit = 1 << p
            for c in _bits_of(cz[p]):
                cz[c] ^= bit
                if basis >> c & 1:
                    zmask ^= (ones >> c & 1) << p
                elif basis & bit:
                    zmask ^= (ones >> p & 1) << c
                else:
                    _negate(t, _plan(n, "CZ", (p, c)))
            cz[p] = 0
            z = zmask >> p & 1
            order, back, halves = plan
            if basis & bit:
                v = ones >> p & 1
                new = np.empty(t.shape, dtype=complex)
                np.multiply(t[halves[v]], _H[0, 0], out=new)
                t = new
                zmask = zmask & ~bit | v << p
                sign ^= z & v
                basis ^= bit
            else:
                zmask &= ~bit
                t = _apply_matrix(t, _HZ if z else _H, order, back, normalise=False)
        else:  # U
            _apply_frame(t, zmask, cz, sign)
            zmask = sign = 0
            cz = [0] * n
            for q in qubits:
                basis &= ~(1 << q)
            matrix = np.ascontiguousarray(g.matrix, dtype=complex)
            t = _apply_matrix(t, matrix, *plan, normalise=True)
    return t, (zmask, cz, sign)


def _final_state(circuit: Circuit) -> np.ndarray:
    """Flat C-contiguous amplitude vector; qubit 0 is the most significant
    index bit: ``_evolve``'s state with its phase frame applied.  A
    hand-appended gate that no ``Circuit`` method would make raises
    ValueError first (``_plan``)."""
    t, frame = _evolve(circuit)
    _apply_frame(t, *frame)
    # a view may be reversed or transposed; np.abs rounds differently on
    # strided input, so the result is made contiguous
    return np.ascontiguousarray(t).reshape(-1)


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """|amplitude|^2 per basis state, pruned at ``PROB_PRUNE``, in ascending
    basis-state order.  The phase frame that ``_evolve`` leaves is never
    applied: it only changes signs, and |a|^2 = |-a|^2 exactly.  Keys are
    rendered for the whole support at once: one row of '0'/'1' bytes per
    index, qubit 0 leftmost, read as a string."""
    t, _ = _evolve(circuit)
    n = circuit.num_qubits
    # np.abs rounds differently on strided input, so it reads a contiguous copy
    probs = np.abs(np.ascontiguousarray(t).reshape(-1)) ** 2
    idx = np.flatnonzero(probs > PROB_PRUNE)
    # n <= 16: each index as two big-endian bytes unpacks to its 16 bits,
    # most significant first, of which the last n are qubits 0..n-1
    bits = np.unpackbits(idx.astype(">u2").view(np.uint8)).reshape(-1, 16)
    keys = (bits[:, 16 - n:] | ord("0")).view(f"S{n}").ravel().astype(f"U{n}").tolist()
    return dict(zip(keys, probs[idx].tolist()))


# -- cross-validation -------------------------------------------------------


@lru_cache(maxsize=STATEVECTOR_QUBIT_CAP)
def _gate_table(n: int) -> tuple:
    """The shared ``_gate`` instances that ``random_clifford_circuit`` draws
    on n qubits, indexed by its draws: [i][a] for the 1-qubit names (i < 3)
    and [i][a][j] for the pairs, whose qubits are (a, n - 1 if j == a else
    j).  The cache holds the tables of every register ``backends-check``
    draws."""
    names = ("H", "X", "Z", "CNOT", "CZ") if n >= 2 else ("H", "X", "Z")
    return tuple(tuple(_gate(name, (a,)) for a in range(n)) if i < 3 else
                 tuple(tuple(_gate(name, (a, n - 1 if j == a else j)) for j in range(n - 1))
                       for a in range(n))
                 for i, name in enumerate(names))


def random_clifford_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """Uniform gate names over H, X, Z (and CNOT, CZ from 2 qubits), uniform
    qubits: per gate, name = rnd.choice(names) and a = rnd.randrange(n), and
    for a pair j = rnd.randrange(n - 1), with b = j, or n - 1 where j == a
    (the draws ``rnd.sample(range(n), 2)`` makes for n <= 21).

    Each draw below m is made as ``Random._randbelow`` makes it: k =
    m.bit_length(), then ``getrandbits(k)`` until the value is below m, so
    the circuits are the ones those calls give, without their per-call
    overhead.  Drawn qubits are in range and distinct by construction, and
    gates are frozen, so each is read from the register's ``_gate_table``
    straight onto the list."""
    getrandbits = random.Random(seed).getrandbits
    n = num_qubits
    c = Circuit(n)
    table = _gate_table(n)
    kinds = len(table)
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
            gates.append(table[i][a])
            continue
        j = getrandbits(k_other)
        while j >= n - 1:
            j = getrandbits(k_other)
        gates.append(table[i][a][j])
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
