"""2D quasi-orthogonal complete complementary code pipeline.

1D sequence sets come from Sylvester-Walsh rows (power-of-2 orders), get
arranged into an N x N array, adjusted for cross-correlation (two variants:
the literal entrywise formula and classical Gram-Schmidt), and expanded into
a tensor amplitude state with optional redundant/parity/auxiliary qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from qgqec._bits import int_to_bits
from qgqec.circuits import PROB_PRUNE, STATEVECTOR_QUBIT_CAP
from qgqec.groups import SIGN, kron_power


@dataclass(frozen=True)
class SequenceSet1D:
    base_n: int
    sequences: tuple

    def __post_init__(self):
        want = self.base_n * self.base_n
        for s in self.sequences:
            if len(s) != want:
                raise ValueError(f"sequence length {len(s)} != N^2 = {want}")


@dataclass(frozen=True)
class QoArray:
    n: int
    original: np.ndarray
    adjusted: np.ndarray | None = None

    def __post_init__(self):
        if self.original.shape != (self.n, self.n):
            raise ValueError("original must be N x N")
        if self.adjusted is not None and self.adjusted.shape != (self.n, self.n):
            raise ValueError("adjusted must be N x N")


@dataclass(frozen=True)
class AmplitudeState:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude vector must have length 2^num_qubits")


def walsh_matrix(order: int) -> np.ndarray:
    """Sylvester construction; order must be a power of 2."""
    if order < 1 or order & (order - 1):
        raise ValueError(f"order {order} is not a power of 2")
    return kron_power(SIGN, int(order).bit_length() - 1)


def build_1d_ccc(n: int) -> SequenceSet1D:
    """N sequences of length N^2 from stride-N rows of the order-N^2 Walsh
    matrix; distinct sequences have inner product exactly 0."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"N={n} is not a power of 2")
    if n > 16:
        raise ValueError("N capped at 16")
    walsh = walsh_matrix(n * n)
    return SequenceSet1D(n, tuple(walsh[j * n].copy() for j in range(n)))


def reshape_2d(c) -> QoArray:
    """Row-major fill of a length-n^2 vector into an n x n array."""
    v = np.asarray(c, dtype=float).reshape(-1)
    n = math.isqrt(len(v))
    if n * n != len(v):
        raise ValueError(f"length {len(v)} is not a perfect square")
    return QoArray(n, v.reshape(n, n))


def adjust_literal(a: QoArray) -> QoArray:
    """The entrywise cross-correlation adjustment, taken literally.

    a'_ij = a_ij - <row_i, row_j> / <row_i, row_i> for i != j; diagonal
    entries and rows with zero norm pass through unchanged.
    """
    if a.adjusted is not None:
        raise ValueError("array already adjusted")
    src = a.original
    out = src.copy()
    norms = (src * src).sum(axis=1)
    for i in range(a.n):
        if norms[i] == 0.0:
            continue
        for j in range(a.n):
            if i == j:
                continue
            out[i, j] = src[i, j] - float(src[i] @ src[j]) / norms[i]
    return replace(a, adjusted=out)


def adjust_gram_schmidt(a: QoArray) -> QoArray:
    """Orthogonalize rows in index order (projections onto processed rows);
    zero rows are skipped."""
    src = a.original
    out = src.astype(float).copy()
    for i in range(a.n):
        for j in range(i):
            denom = float(out[j] @ out[j])
            if denom == 0.0:
                continue
            out[i] = out[i] - (float(out[i] @ out[j]) / denom) * out[j]
    return replace(a, adjusted=out)


def expand_state(a: QoArray, use_adjusted: bool = False) -> AmplitudeState:
    """The entries, signs kept, as amplitudes on |i> (x) |j> (row-major),
    divided by their 2-norm: [[1, -1], [1, 1]] gives [.5, -.5, .5, .5]."""
    entries = a.adjusted if use_adjusted else a.original
    if entries is None:
        raise ValueError("array has no adjusted entries yet")
    n = a.n
    if n < 2 or n & (n - 1):
        raise ValueError(f"N={n} must be a power of 2 (>= 2) to index qubits")
    norm = float(np.linalg.norm(entries))
    if norm == 0.0:
        raise ValueError("cannot normalize an all-zero array")
    side = n.bit_length() - 1
    return AmplitudeState(2 * side, (entries / norm).reshape(-1).astype(complex))


def add_redundancy(s: AmplitudeState, num_redundant: int, num_parity: int, num_aux: int) -> AmplitudeState:
    """Append redundant + parity + auxiliary qubits in |0...0>."""
    if min(num_redundant, num_parity, num_aux) < 0:
        raise ValueError("qubit counts must be >= 0")
    extra = num_redundant + num_parity + num_aux
    total = s.num_qubits + extra
    if total > STATEVECTOR_QUBIT_CAP:
        raise ValueError(f"{total} qubits exceeds the dense cap of {STATEVECTOR_QUBIT_CAP}")
    if extra == 0:
        return s
    amps = np.zeros(1 << total, dtype=complex)
    amps[np.arange(1 << s.num_qubits) << extra] = s.amplitudes
    return AmplitudeState(total, amps)


def probability_amplitudes(s: AmplitudeState) -> dict[str, float]:
    """|amplitude|^2 per basis state, pruned at ``PROB_PRUNE``."""
    n = s.num_qubits
    probs = np.abs(s.amplitudes) ** 2
    return {int_to_bits(i, n): float(p) for i, p in enumerate(probs) if p > PROB_PRUNE}
