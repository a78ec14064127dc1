"""Plain reference copies of ``qgqec.sim`` functions, which the faster ones
are checked against.

``random_clifford_circuit_reference`` builds each gate through the
``Circuit`` methods (range and distinctness checked per gate) and draws each
qubit pair with ``rnd.sample``, which for n <= 21 makes the draws of
``random_clifford_circuit_draw_reference``.  That one draws with
``rnd.choice`` and ``rnd.randrange`` and builds a fresh ``Gate`` per gate;
it defines the circuits at any width.  ``exact_distribution_reference``
renders one key per support index with ``format``.  ``outcome_of_index``
is the tableau's affine outcome map applied to one random-bit index.
``ShotStream`` is the scalar per-shot stream that ``qgqec.rng.first_words``
vectorises, and so the reference for ``first_words``; ``per_shot_reference``
measures one row-form tableau copy per stream, the sampler's definition.
"""

import random

import numpy as np

from qgqec import sim
from qgqec.circuits import Circuit, Gate
from qgqec.rng import _GAMMA, MASK64, mix64
from row_tableau import RowTableau


def random_clifford_circuit_reference(num_qubits: int, num_gates: int, seed: int) -> Circuit:
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


def random_clifford_circuit_draw_reference(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    rnd = random.Random(seed)
    n = num_qubits
    c = Circuit(n)
    names = ["H", "X", "Z"] + (["CNOT", "CZ"] if n >= 2 else [])
    for _ in range(num_gates):
        name = rnd.choice(names)
        a = rnd.randrange(n)
        if name in ("CNOT", "CZ"):
            j = rnd.randrange(n - 1)
            c.gates.append(Gate(name, (a, n - 1 if j == a else j)))
        else:
            c.gates.append(Gate(name, (a,)))
    return c


def exact_distribution_reference(circuit: Circuit) -> dict[str, float]:
    flat = sim._final_state(circuit)
    n = circuit.num_qubits
    probs = np.abs(flat) ** 2
    return {
        format(idx, f"0{n}b"): float(probs[idx])
        for idx in np.flatnonzero(probs > sim.PROB_PRUNE).tolist()
    }


def outcome_of_index(o0: int, cols, index: int) -> int:
    """o0 XOR cols[i] for every bit i set in `index`, one column at a time."""
    for i, col in enumerate(cols):
        if index >> i & 1:
            o0 ^= col
    return o0


def shot_state(seed: int, shot_index: int) -> int:
    """Initial stream state for one shot of one run."""
    return mix64(mix64(seed & MASK64) ^ ((shot_index + _GAMMA) & MASK64))


class ShotStream:
    """Word-buffered bit source for a single shot."""

    __slots__ = ("_state", "_word", "_bits_left")

    def __init__(self, seed: int, shot_index: int):
        self._state = shot_state(seed, shot_index)
        self._word = 0
        self._bits_left = 0

    def next_word(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def next_bit(self) -> int:
        if self._bits_left == 0:
            self._word = self.next_word()
            self._bits_left = 64
        bit = self._word & 1
        self._word >>= 1
        self._bits_left -= 1
        return bit


def per_shot_reference(n: int, ops, shots: int, seed: int) -> list[int]:
    """The sampler's definition: one row-form tableau copy measured per
    shot stream; each outcome has qubit q at bit q."""
    base = RowTableau(n)
    base.apply(ops)
    return [base.copy().measure_all(ShotStream(seed, s)) for s in range(shots)]
