"""Pure-Python hot kernels: stabilizer tableau engine, shot sampler and
decode sweep.

``_kernels.pyx`` is a C translation whose ``sample_shots`` still measures
one tableau copy per shot.  Both must stay bit-identical: same gate
lowering, same rowsum phase rule, same RNG arithmetic, same pattern
enumeration order.

Tableau layout (Aaronson-Gottesman): rows 0..n-1 are destabilizers,
n..2n-1 stabilizers; each row packs its X and Z components into one
64-bit-capable integer with qubit q at bit q, plus a sign bit.

Shot sampling is affine over GF(2) (reference sample plus frames, as in
Gidney's Stim): whether measurement q is random does not depend on earlier
outcomes, and every outcome bit is an XOR of the random bits consumed before
it.  ``outcome_map`` finds that map with r + 1 measurement passes, where r
is the number of random measurements, and ``sample_shots`` applies it to
every shot at once with numpy.
"""

from __future__ import annotations

import numpy as np

from qgqec._bits import popcount
from qgqec.rng import MASK64, ShotStream, first_words, mix64

BACKEND_NAME = "pure"
MAX_TABLEAU_QUBITS = 64

OP_H, OP_X, OP_Z, OP_CNOT, OP_CZ = 0, 1, 2, 3, 4


class TableauEngine:
    __slots__ = ("n", "mask", "xs", "zs", "rs")

    def __init__(self, n: int):
        if not 1 <= n <= MAX_TABLEAU_QUBITS:
            raise ValueError(f"tableau supports 1..{MAX_TABLEAU_QUBITS} qubits")
        self.n = n
        self.mask = (1 << n) - 1
        self.xs = [1 << i for i in range(n)] + [0] * n
        self.zs = [0] * n + [1 << i for i in range(n)]
        self.rs = [0] * (2 * n)

    def copy(self) -> "TableauEngine":
        t = TableauEngine.__new__(TableauEngine)
        t.n, t.mask = self.n, self.mask
        t.xs, t.zs, t.rs = self.xs[:], self.zs[:], self.rs[:]
        return t

    # -- gates ----------------------------------------------------------

    def apply(self, ops) -> None:
        for code, a, b in ops:
            if code == OP_H:
                self._h(a)
            elif code == OP_X:
                self._x(a)
            elif code == OP_Z:
                self._z(a)
            elif code == OP_CNOT:
                self._cnot(a, b)
            elif code == OP_CZ:
                self._h(b)
                self._cnot(a, b)
                self._h(b)
            else:
                raise ValueError(f"unknown opcode {code}")

    def _h(self, q: int) -> None:
        bit = 1 << q
        xs, zs, rs = self.xs, self.zs, self.rs
        for i in range(2 * self.n):
            xq = xs[i] & bit
            zq = zs[i] & bit
            if xq and zq:
                rs[i] ^= 1
            if bool(xq) != bool(zq):
                xs[i] ^= bit
                zs[i] ^= bit

    def _x(self, q: int) -> None:
        bit = 1 << q
        for i in range(2 * self.n):
            if self.zs[i] & bit:
                self.rs[i] ^= 1

    def _z(self, q: int) -> None:
        bit = 1 << q
        for i in range(2 * self.n):
            if self.xs[i] & bit:
                self.rs[i] ^= 1

    def _cnot(self, c: int, t: int) -> None:
        bc, bt = 1 << c, 1 << t
        xs, zs, rs = self.xs, self.zs, self.rs
        for i in range(2 * self.n):
            xc = xs[i] & bc
            zt = zs[i] & bt
            if xc and zt and (bool(xs[i] & bt) == bool(zs[i] & bc)):
                rs[i] ^= 1
            if xc:
                xs[i] ^= bt
            if zt:
                zs[i] ^= bc

    # -- rowsum phase ----------------------------------------------------

    def _phase_sum(self, x1: int, z1: int, r1: int, x2: int, z2: int, r2: int) -> int:
        """(2 r2 + 2 r1 + sum g) mod 4 for product row1 . row2."""
        full = self.mask
        y1 = x1 & z1
        xonly = x1 & ~z1
        zonly = ~x1 & z1 & full
        pos = (
            popcount(y1 & z2 & ~x2 & full)
            + popcount(xonly & x2 & z2)
            + popcount(zonly & x2 & ~z2 & full)
        )
        neg = (
            popcount(y1 & x2 & ~z2 & full)
            + popcount(xonly & z2 & ~x2 & full)
            + popcount(zonly & x2 & z2)
        )
        return (2 * r1 + 2 * r2 + pos - neg) % 4

    def _rowsum(self, h: int, i: int) -> None:
        # destabilizer targets may hit an odd (imaginary) sum; the sign of a
        # destabilizer is never outcome-visible, so s >> 1 is a fixed
        # don't-care rule kept identical in both backends
        s = self._phase_sum(self.xs[i], self.zs[i], self.rs[i], self.xs[h], self.zs[h], self.rs[h])
        self.rs[h] = s >> 1
        self.xs[h] ^= self.xs[i]
        self.zs[h] ^= self.zs[i]

    # -- measurement -----------------------------------------------------

    def is_random(self, q: int) -> bool:
        bit = 1 << q
        xs = self.xs
        for i in range(self.n, 2 * self.n):
            if xs[i] & bit:
                return True
        return False

    def project(self, q: int, outcome: int) -> None:
        """Collapse a random Z measurement of qubit q to the given outcome."""
        n, bit = self.n, 1 << q
        xs, zs, rs = self.xs, self.zs, self.rs
        p = next(i for i in range(n, 2 * n) if xs[i] & bit)
        for i in range(2 * n):
            if i != p and (xs[i] & bit):
                self._rowsum(i, p)
        xs[p - n], zs[p - n], rs[p - n] = xs[p], zs[p], rs[p]
        xs[p] = 0
        zs[p] = bit
        rs[p] = outcome

    def deterministic_outcome(self, q: int) -> int:
        bit = 1 << q
        sx = sz = sr = 0
        for i in range(self.n):
            if self.xs[i] & bit:
                j = i + self.n
                s = self._phase_sum(self.xs[j], self.zs[j], self.rs[j], sx, sz, sr)
                sr = s >> 1
                sx ^= self.xs[j]
                sz ^= self.zs[j]
        return sr

    def measure_all(self, stream: ShotStream) -> int:
        """Measure qubits 0..n-1 in order; bit q of the result is qubit q."""
        out = 0
        for q in range(self.n):
            if self.is_random(q):
                b = stream.next_bit()
                self.project(q, b)
            else:
                b = self.deterministic_outcome(q)
            out |= b << q
        return out


class _FixedBits:
    """Bit source replaying one integer, low bit first; counts bits used."""

    __slots__ = ("word", "used")

    def __init__(self, word: int):
        self.word = word
        self.used = 0

    def next_bit(self) -> int:
        bit = (self.word >> self.used) & 1
        self.used += 1
        return bit


def outcome_map(engine) -> tuple[int, list[int]]:
    """(o0, cols): measuring all qubits of `engine` with random bits b_i
    gives o0 ^ XOR of cols[i] over the set b_i.

    Uses only ``copy`` and ``measure_all``, so it serves either engine and
    leaves `engine` unchanged.
    """
    zeros = _FixedBits(0)
    o0 = engine.copy().measure_all(zeros)
    cols = [engine.copy().measure_all(_FixedBits(1 << i)) ^ o0 for i in range(zeros.used)]
    return o0, cols


def sample_shots(num_qubits: int, ops, shots: int, seed: int) -> list[int]:
    """Simulate once, then measure `shots` independent copies.

    Shot s consumes the low r bits of the first word of ``ShotStream(seed,
    s)`` (r <= n <= 64), so its outcome is o0 XOR one byte-table lookup per
    8 columns of the outcome map, indexed by the bytes of that word.
    """
    base = TableauEngine(num_qubits)
    base.apply(ops)
    o0, cols = outcome_map(base)
    words = first_words(seed, shots)
    out = np.full(len(words), o0, dtype=np.uint64)
    for lo in range(0, len(cols), 8):
        table = np.zeros(1, dtype=np.uint64)
        for col in cols[lo:lo + 8]:
            table = np.concatenate([table, table ^ np.uint64(col)])
        out ^= table[(words >> np.uint64(lo)) & np.uint64(len(table) - 1)]
    return out.tolist()


def sweep_weight(m: int, codewords, weight: int) -> tuple[int, int]:
    """Decode codeword ^ pattern for every codeword and every error pattern
    of exactly `weight` flips (Gosper enumeration, ascending masks).

    Returns (cases, corrected) where a case is one (pattern, codeword) pair
    and corrected means minimum-distance decoding returned that codeword.
    """
    if weight < 1 or weight > m:
        return 0, 0
    cws = list(codewords)
    k = len(cws)
    limit = 1 << m
    cases = corrected = 0
    pattern = (1 << weight) - 1
    while pattern < limit:
        for l in range(k):
            received = cws[l] ^ pattern
            best_l, best_d = 0, m + 1
            for j in range(k):
                dist = popcount(received ^ cws[j])
                if dist < best_d:
                    best_l, best_d = j, dist
            cases += 1
            if best_l == l:
                corrected += 1
        u = pattern & -pattern
        v = pattern + u
        pattern = v | (((v ^ pattern) // u) >> 2)
    return cases, corrected


def rng_words(seed: int, shot_index: int, count: int) -> list[int]:
    """Test hook: the first `count` raw words of one shot stream."""
    stream = ShotStream(seed, shot_index)
    return [stream.next_word() for _ in range(count)]


# re-exported so both backends expose one surface
__all__ = [
    "BACKEND_NAME",
    "MAX_TABLEAU_QUBITS",
    "OP_H",
    "OP_X",
    "OP_Z",
    "OP_CNOT",
    "OP_CZ",
    "TableauEngine",
    "sample_shots",
    "sweep_weight",
    "rng_words",
    "mix64",
    "MASK64",
]
