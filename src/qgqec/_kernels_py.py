"""The hot kernels, in Python ints and numpy: stabilizer tableau engine,
shot sampler and decode sweep.  This is the only kernel module;
``backend.kernels`` is this module object.

Tableau layout (Aaronson-Gottesman): rows 0..n-1 are destabilizers,
n..2n-1 stabilizers; each row packs its X and Z components into one
64-bit-capable integer with qubit q at bit q, plus a sign bit.

Shot sampling is affine over GF(2) (reference sample plus frames, as in
Gidney's Stim): whether measurement q is random does not depend on earlier
outcomes, and every outcome bit is an XOR of the random bits consumed before
it.  ``outcome_map`` finds that map in one measurement pass with every
random bit 0, tracking one Pauli frame per random measurement.  A shot's
outcome is then a function of its random-bit index alone, so
``sample_shots`` histograms the indices of ``SHOT_CHUNK`` shots at a time
with numpy and maps only the distinct indices to outcomes
(``outcomes_of``): memory stays within a few chunks at any shot count.

The decode sweep relies on the code being linear: the distances from a
received word to all k codewords are the k distances of the error pattern to
the codewords themselves, re-indexed.  ``sweep_weight`` computes those k - 1
popcounts per pattern on chunks of at most ``SWEEP_CHUNK`` patterns, so
memory stays bounded at any weight.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from qgqec._bits import popcount
from qgqec.rng import ShotStream, first_words

BACKEND_NAME = "pure"
MAX_TABLEAU_QUBITS = 64

# shots per sampling chunk: bounds the sampler's per-chunk arrays (about
# 0.5 MB each) at any shot count
SHOT_CHUNK = 65536
# error patterns per sweep chunk: bounds the sweep's arrays (about 200 KB)
# at any weight; larger chunks gain little speed
SWEEP_CHUNK = 4096
_LOW_BITS = 10
_LOW_SHIFT = np.uint64(_LOW_BITS)

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
        # don't-care rule (the affine sampler's columns depend on it)
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

    def project(self, q: int, outcome: int) -> int:
        """Collapse a random Z measurement of qubit q to the given outcome and
        return the X mask of the replaced stabilizer, the Pauli that maps the
        state after one outcome to the state after the other."""
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
        return xs[p - n]

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


def outcome_map(engine) -> tuple[int, list[int]]:
    """(o0, cols): measuring all qubits of `engine` with random bits b_i
    gives o0 ^ XOR of cols[i] over the set b_i.

    One pass over one copy with every random bit 0 gives o0.  Flipping bit
    i applies the Pauli frame of measurement i, whose X mask flips every
    later deterministic outcome it touches; a later random measurement keeps
    its own bit, so it multiplies its own Pauli into every frame it flips.
    `engine` is left unchanged.
    """
    t = engine.copy()
    o0 = 0
    frames: list[int] = []
    cols: list[int] = []
    for q in range(t.n):
        bit = 1 << q
        if t.is_random(q):
            flip = t.project(q, 0)
            frames = [f ^ flip if f & bit else f for f in frames]
            frames.append(flip)
            cols.append(bit)
        else:
            o0 |= t.deterministic_outcome(q) << q
            cols = [c | bit if f & bit else c for c, f in zip(cols, frames)]
    return o0, cols


def outcomes_of(o0: int, cols: list[int], indices: np.ndarray) -> np.ndarray:
    """The outcome of each random-bit index (uint64): o0 XOR the cols[i] of
    every bit i set in the index, one 256-entry XOR table lookup per 8
    columns.  Independent columns make the map one-to-one."""
    out = np.full(len(indices), o0, dtype=np.uint64)
    for lo in range(0, len(cols), 8):
        table = np.zeros(1, dtype=np.uint64)
        for col in cols[lo:lo + 8]:
            table = np.concatenate([table, table ^ np.uint64(col)])
        out ^= table[(indices >> np.uint64(lo)) & np.uint64(len(table) - 1)]
    return out


def _merge_counts(a, b):
    """Two (ascending keys, counts) histograms as one."""
    keys = np.concatenate([a[0], b[0]])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return keys[starts], np.add.reduceat(np.concatenate([a[1], b[1]])[order], starts)


def sample_shots(num_qubits: int, ops, shots: int, seed: int) -> dict[int, int]:
    """Simulate once, then measure `shots` independent copies; returns
    {outcome: count} with keys in ascending random-bit index order.

    Shot s consumes the low r bits of the first word of ``ShotStream(seed,
    s)`` (r <= n <= 64), its random-bit index, and its outcome is a function
    of that index alone.  So shots are taken ``SHOT_CHUNK`` at a time, each
    chunk's indices histogrammed with ``np.unique``, the histograms merged,
    and only the distinct indices mapped to outcomes (``outcomes_of``):
    memory stays within a few chunks at any shot count, beyond the
    histogram itself.  Merges keep each pending run more than twice the size
    of the next, so even r = 64 (every index distinct) merges in
    O(shots log shots).
    """
    base = TableauEngine(num_qubits)
    base.apply(ops)
    o0, cols = outcome_map(base)
    mask = np.uint64((1 << len(cols)) - 1)
    runs = []
    for start in range(0, shots, SHOT_CHUNK):
        words = first_words(seed, min(SHOT_CHUNK, shots - start), start)
        words &= mask
        runs.append(np.unique(words, return_counts=True))
        while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
            runs.append(_merge_counts(runs.pop(), runs.pop()))
    if not runs:
        return {}
    while len(runs) > 1:
        runs.append(_merge_counts(runs.pop(), runs.pop()))
    indices, counts = runs[0]
    return dict(zip(outcomes_of(o0, cols, indices).tolist(), counts.tolist()))


def _check_linear(m: int, cws: list[int]) -> None:
    """Reject lists that are not the 2^n codewords of a linear code indexed
    like ``QCCode.codewords()``: cws[l] is the XOR of cws[2^b] over the bits
    b set in l, so cws[0] == 0.  O(k) integer operations."""
    k = len(cws)
    if k == 0 or k & (k - 1):
        raise ValueError(f"need 2^n codewords, got {k}")
    if cws[0] != 0:
        raise ValueError("codeword 0 must be the zero word")
    for l in range(1, k):
        if not 0 <= cws[l] < 1 << m:
            raise ValueError(f"codeword {l} is not an {m}-bit word")
        if cws[l] != cws[l & (l - 1)] ^ cws[l & -l]:
            raise ValueError(f"codeword {l} is not the XOR of its basis words")


@lru_cache(maxsize=1)
def _low_table() -> list[np.ndarray]:
    """Ascending masks of _LOW_BITS bits, one array per popcount (built on
    first use, so commands that never sweep do not pay for it)."""
    masks = np.arange(1 << _LOW_BITS, dtype=np.uint64)
    counts = np.bitwise_count(masks)
    table = [masks[counts == w] for w in range(_LOW_BITS + 1)]
    for row in table:
        row.flags.writeable = False  # _weight_masks yields views of it
    return table


def _weight_masks(m: int, weight: int, limit: int):
    """Every m-bit mask of exactly `weight` set bits once, in arrays of at
    most `limit` uint64 entries.

    Up to ``_LOW_BITS`` bits a mask set is a prefix of one ascending table;
    above that each mask is a high part (recursively, in chunks sized so the
    product stays within `limit`) joined with every low part of the
    remaining weight.
    """
    if m <= _LOW_BITS:
        table = _low_table()[weight][:comb(m, weight)]
        for i in range(0, len(table), limit):
            yield table[i:i + limit]
        return
    high_bits = m - _LOW_BITS
    for low_weight in range(max(0, weight - high_bits), min(weight, _LOW_BITS) + 1):
        low = _low_table()[low_weight]
        for high in _weight_masks(high_bits, weight - low_weight, max(1, limit // len(low))):
            block = ((high << _LOW_SHIFT)[:, None] | low).ravel()
            for i in range(0, len(block), limit):
                yield block[i:i + limit]


def sweep_weight(m: int, codewords, weight: int) -> tuple[int, int]:
    """Decode codeword ^ pattern for every codeword of a linear code and
    every m-bit error pattern of exactly `weight` flips.

    Returns (cases, corrected) where a case is one (pattern, codeword) pair
    and corrected means minimum-distance decoding (ties to the smallest
    index, as ``aqecc.decode``) returned that codeword.

    Linearity makes one pass over the k - 1 distances D[t] = wt(e ^ cw_t)
    per pattern e enough: received cw_l ^ e lies at D[l ^ j] from cw_j, and
    D[0] = weight.  Decoding returns l iff D[t] > weight for every t != 0
    whose top bit is set in l and D[t] >= weight for the rest, so with M_b
    the least D[t] over the t of top bit b, the pattern is corrected for
    prod_b ([M_b >= weight] + [M_b > weight]) of the k codewords.  Patterns
    are processed in numpy chunks of at most ``SWEEP_CHUNK``.
    """
    if weight < 1 or weight > m:
        return 0, 0
    if m > 64:
        raise ValueError("sweep supports at most 64 physical bits")
    cws = list(codewords)
    _check_linear(m, cws)
    words = np.array(cws, dtype=np.uint64)
    patterns = corrected = 0
    for errors in _weight_masks(m, weight, SWEEP_CHUNK):
        counts = np.ones(len(errors), dtype=np.int64)
        for b in range(len(cws).bit_length() - 1):
            least = np.bitwise_count(errors ^ words[1 << b])
            for t in range((1 << b) + 1, 2 << b):
                np.minimum(least, np.bitwise_count(errors ^ words[t]), out=least)
            counts *= (least >= weight).astype(np.int64) + (least > weight)
        patterns += len(errors)
        corrected += int(counts.sum())
    return patterns * len(cws), corrected
