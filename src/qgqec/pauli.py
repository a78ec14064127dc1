"""Exact Pauli-operator algebra over phase-tracked X/Z bit-masks.

Masks put qubit q at bit q; text labels render qubit 0 as the leftmost
letter.  Phases live in the exact 4-element group {+1, +i, -1, -i}; a qubit
with both x and z bits set is the letter Y (Y = -i.Z.X, applied X first).
"""

from __future__ import annotations

from dataclasses import dataclass

from qgqec._bits import popcount

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_EXP = {1 + 0j: 0, 1j: 1, -1 + 0j: 2, -1j: 3}
_PHASE_LABEL = {0: "+", 1: "i", 2: "-", 3: "-i"}
_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_LETTER_BITS = {v: k for k, v in _LETTERS.items()}


@dataclass(frozen=True)
class PauliOperator:
    num_qubits: int
    x_mask: int = 0
    z_mask: int = 0
    phase: complex = 1 + 0j

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        full = (1 << self.num_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask exceeds num_qubits bits")
        if self.phase not in _PHASE_EXP:
            raise ValueError(f"phase must be one of +1, +i, -1, -i, got {self.phase}")

    def __str__(self) -> str:
        return to_label(self)

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase == 1


def x_operator(num_qubits: int, positions) -> PauliOperator:
    """X on each listed qubit, identity elsewhere."""
    return PauliOperator(num_qubits, x_mask=_qubit_mask(num_qubits, positions))


def z_operator(num_qubits: int, positions) -> PauliOperator:
    return PauliOperator(num_qubits, z_mask=_qubit_mask(num_qubits, positions))


def _qubit_mask(n: int, positions) -> int:
    """Bit q set for each listed qubit q, each checked to lie in 0..n-1."""
    mask = 0
    for q in positions:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
        mask |= 1 << q
    return mask


def pauli_mul(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Group product a.b with exact phase tracking."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit-count mismatch")
    full = (1 << a.num_qubits) - 1
    x1, z1, x2, z2 = a.x_mask, a.z_mask, b.x_mask, b.z_mask
    # cyclic letter pairs XY, YZ, ZX contribute +i; the reversed pairs -i
    pos = (
        popcount(x1 & ~z1 & x2 & z2)
        + popcount(x1 & z1 & ~x2 & z2 & full)
        + popcount(~x1 & z1 & x2 & ~z2 & full)
    )
    neg = (
        popcount(x1 & z1 & x2 & ~z2 & full)
        + popcount(~x1 & z1 & x2 & z2 & full)
        + popcount(x1 & ~z1 & ~x2 & z2 & full)
    )
    k = (_PHASE_EXP[a.phase] + _PHASE_EXP[b.phase] + pos - neg) % 4
    return PauliOperator(a.num_qubits, x1 ^ x2, z1 ^ z2, PHASES[k])


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff ab = ba (even symplectic form)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit-count mismatch")
    form = popcount(a.x_mask & b.z_mask) + popcount(a.z_mask & b.x_mask)
    return form % 2 == 0


def apply_to_basis(p: PauliOperator, bits: str) -> tuple[complex, str]:
    """Act on a computational basis state: X flips first, then Z signs.

    Returns (phase, bitstring); each Y letter carries its -i relative to
    the bare Z.X mask action.
    """
    if len(bits) != p.num_qubits:
        raise ValueError("bitstring length mismatch")
    in_mask = 0
    for q, c in enumerate(bits):
        if c == "1":
            in_mask |= 1 << q
        elif c != "0":
            raise ValueError(f"invalid bit {c!r}")
    out_mask = in_mask ^ p.x_mask
    z_flips = popcount(p.z_mask & out_mask)
    y_count = popcount(p.x_mask & p.z_mask)
    k = (_PHASE_EXP[p.phase] + 2 * z_flips + 3 * y_count) % 4
    out = "".join("1" if out_mask >> q & 1 else "0" for q in range(p.num_qubits))
    return PHASES[k], out


def to_label(p: PauliOperator) -> str:
    """Render e.g. '+XIZ' (phase prefix, qubit 0 leftmost)."""
    letters = "".join(
        _LETTERS[(p.x_mask >> q & 1, p.z_mask >> q & 1)] for q in range(p.num_qubits)
    )
    return _PHASE_LABEL[_PHASE_EXP[p.phase]] + letters


def from_label(label: str) -> PauliOperator:
    """Parse the to_label grammar; a missing phase prefix means +1."""
    body = label
    k = 0
    if body.startswith("-i"):
        k, body = 3, body[2:]
    elif body.startswith("-"):
        k, body = 2, body[1:]
    elif body.startswith("i"):
        k, body = 1, body[1:]
    elif body.startswith("+"):
        body = body[1:]
    if not body:
        raise ValueError(f"no qubit letters in {label!r}")
    x_mask = z_mask = 0
    for q, c in enumerate(body):
        if c not in _LETTER_BITS:
            raise ValueError(f"invalid Pauli letter {c!r} in {label!r}")
        xb, zb = _LETTER_BITS[c]
        x_mask |= xb << q
        z_mask |= zb << q
    return PauliOperator(len(body), x_mask, z_mask, PHASES[k])
