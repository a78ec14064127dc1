"""The hot kernels: stabilizer tableau engine, shot sampler (Python ints, and
numpy imported on first use) and decode sweep (Python ints alone).  This is
the only kernel module; ``backend.kernels`` is this module object.

Tableau layout (Aaronson-Gottesman rows, stored by column as in Gidney's
Stim): rows 0..n-1 are destabilizers, n..2n-1 stabilizers, and row i is bit
i of every column.  Qubit q has an X column and a Z column, each one 2n-bit
Python int, and one more int holds the row signs.  A gate is a handful of
big-int operations on its qubits' columns; a random measurement multiplies
one stabilizer into every anticommuting row at once, one column at a time,
summing the phases in a bit-sliced mod-4 counter.

Shot sampling is affine over GF(2) (reference sample plus frames, as in
Gidney's Stim): whether measurement q is random does not depend on earlier
outcomes, and every outcome bit is an XOR of the random bits consumed before
it.  ``outcome_map`` checks the ops and finds that map in one measurement
pass with every random bit 0, tracking one Pauli frame per random
measurement, and reads the deterministic outcomes from the stabilizer signs
at the end; each column's lowest set bit (its pivot) is clear in every other
column and in o0.  A shot's outcome is entry i of ``gf2.span(cols, o0)``,
the one span enumerator, i its random-bit index, so the span's bound of 16
vectors is the sampler's bound on r (every preset has r <= 4).  X
and Z gates just before measurement only move o0 (a Pauli frame), so
``sample_shots`` evolves each Clifford prefix once while a small memo holds
its map, XORs the trailing X's into o0 and then the column of every pivot
o0 has set, counts the indices of ``SHOT_CHUNK`` shots at a time into 2^r
totals (one ``np.bincount`` per chunk) and reads the outcomes off that span:
memory stays within a few chunks at any shot count.

The decode sweep relies on the code being linear: a pattern's distances to
the k codewords decide every received word it makes, and they depend only
on how many flips land on each column type (the positions one set of
codewords covers).  So ``sweep_weight`` decodes each composition of the
weight over the types once, all of them in 8-bit lanes of a few Python ints,
and counts it for every pattern it stands for, as in the split weight
enumerators of MacWilliams & Sloane.  A code whose compositions times its k
codewords would pass ``SWEEP_CELLS`` is refused, so memory stays bounded
(every preset needs under 10,000); ``_sweep_table`` checks the codewords
against ``gf2.span`` of their basis, a span no longer than the input.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, prod
from operator import mul

from qgqec import gf2
from qgqec._bits import popcount

BACKEND_NAME = "pure"
MAX_TABLEAU_QUBITS = 64

# shots per sampling chunk: bounds the sampler's per-chunk arrays (about
# 0.5 MB each) at any shot count
SHOT_CHUNK = 65536
# Clifford prefixes whose outcome map ``sample_shots`` keeps: the four case
# encoders with room to spare; each entry holds its prefix's ops
OUTCOME_MAP_CACHE = 16
# compositions times codewords a code's sweep tables may hold: bounds the
# sweep's lanes (every preset needs at most 9,216); larger codes are refused
SWEEP_CELLS = 1 << 20
# sweep lane byte -> corrected codewords: 2^j for j free top bits, 0 from 128
_LANE_FACTOR = [1 << j for j in range(128)] + [0] * 128

OP_H, OP_X, OP_Z, OP_CNOT, OP_CZ = 0, 1, 2, 3, 4


class TableauEngine:
    """Stabilizer tableau of n qubits, stored by column as in Stim.

    Rows 0..n-1 are destabilizers and n..2n-1 stabilizers.  Row i is bit i
    of every column: bit i of xcols[q] (zcols[q]) is set when row i has X
    (Z) on qubit q, and bit i of `signs` is set when row i has sign -1.  A
    gate is a few big-int operations on its qubits' columns, whatever n.
    """

    __slots__ = ("n", "xcols", "zcols", "signs")

    def __init__(self, n: int):
        if not 1 <= n <= MAX_TABLEAU_QUBITS:
            raise ValueError(f"tableau supports 1..{MAX_TABLEAU_QUBITS} qubits")
        self.n = n
        self.xcols = [1 << q for q in range(n)]
        self.zcols = [1 << (n + q) for q in range(n)]
        self.signs = 0

    def apply(self, ops) -> None:
        """Conjugate every row by each gate in turn (Aaronson & Gottesman's
        update rules, applied to all 2n rows at once)."""
        xs, zs, r = self.xcols, self.zcols, self.signs
        for code, a, b in ops:
            if code == OP_H:
                r ^= xs[a] & zs[a]
                xs[a], zs[a] = zs[a], xs[a]
            elif code == OP_X:
                r ^= zs[a]
            elif code == OP_Z:
                r ^= xs[a]
            elif code == OP_CNOT:
                r ^= xs[a] & zs[b] & ~(xs[b] ^ zs[a])
                xs[b] ^= xs[a]
                zs[a] ^= zs[b]
            elif code == OP_CZ:
                r ^= xs[a] & xs[b] & (zs[a] ^ zs[b])
                zs[a] ^= xs[b]
                zs[b] ^= xs[a]
            else:
                self.signs = r
                raise ValueError(f"unknown opcode {code}")
        self.signs = r

    # -- measurement -----------------------------------------------------

    def is_random(self, q: int) -> bool:
        return self.xcols[q] >> self.n != 0

    def project(self, q: int, outcome: int) -> int:
        """Collapse a random Z measurement of qubit q to the given outcome and
        return the X mask of the replaced stabilizer, the Pauli that maps the
        state after one outcome to the state after the other.

        The first stabilizer p with X on q is multiplied into every other
        row with X on q (the mask `hits`), all rows at once, one column of
        p's support at a time.  The phase of each product is summed per row
        in a bit-sliced mod-4 counter (lo, hi), each column adding Aaronson
        & Gottesman's g = +-1 on the rows that anticommute with p there; the
        product's sign is bit 1 of 2 r_p + 2 r_h + sum g, i.e. r_p ^ r_h ^
        hi (an odd sum, possible only on destabilizers, whose signs no
        outcome shows, drops its low bit).  Row p then moves to row p - n
        and becomes +-Z_q, which touches only the columns where row p or
        row p - n is not the identity.
        """
        n, xs, zs = self.n, self.xcols, self.zcols
        stab = xs[q] >> n
        pbit = (stab & -stab) << n  # row p
        dbit = pbit >> n  # row p - n
        both = pbit | dbit
        keep = ~both
        hits = xs[q] ^ pbit
        lo = hi = flip = 0
        for j, (x, z) in enumerate(zip(xs, zs)):
            if not (x | z) & both:
                continue
            if x & pbit:
                flip |= 1 << j
                xh, zh = x & hits, z & hits
                if z & pbit:  # Y: +1 where the row has Z, -1 where X
                    hi ^= (xh ^ zh) & (lo ^ xh)
                    lo ^= xh ^ zh
                    zs[j] = (z ^ hits) & keep | dbit
                else:  # X: +1 where Y, -1 where Z
                    hi ^= zh & ~(lo ^ xh)
                    lo ^= zh
                    zs[j] = z & keep
                xs[j] = (x ^ hits) & keep | dbit
            elif z & pbit:  # Z: +1 where X, -1 where Y
                xh = x & hits
                hi ^= xh & (lo ^ z)
                lo ^= xh
                xs[j] = x & keep
                zs[j] = (z ^ hits) & keep | dbit
            else:
                xs[j] = x & keep
                zs[j] = z & keep
        r = self.signs ^ hi ^ (hits if self.signs & pbit else 0)
        self.signs = r & keep | (r & pbit) >> n | (pbit if outcome else 0)
        zs[q] |= pbit
        return flip


def outcome_map(num_qubits: int, ops) -> tuple[int, tuple[int, ...]]:
    """(o0, cols): measuring all qubits after `ops`, any iterable of op
    triples, from |0...0> with random bits b_i gives o0 ^ XOR of cols[i]
    over the set b_i.  An op qubit outside
    0..n-1 and a CNOT or CZ on one qubit raise ValueError before any engine
    is built.

    One pass over a fresh engine projects the random measurements, in qubit
    order, with every random bit 0.  Flipping bit i applies the Pauli frame
    of measurement i, whose X mask flips every later deterministic outcome
    it touches; a later random measurement keeps its own bit, so it
    multiplies its own Pauli into every frame it flips.  After the pass
    every qubit is measured, so every stabilizer is a +-Z string, and Z_q is
    the product of the stabilizers whose destabilizers have X on q: bit q of
    o0 is the parity of their signs, with no phase sum.  The lowest set bit
    of cols[i], its pivot, is the qubit of random measurement i, so it is
    clear in every other column and in o0: cols is the reduced echelon basis.
    """
    ops = tuple(ops)  # read twice: checked, then applied
    for code, a, b in ops:
        pair = OP_CNOT <= code <= OP_CZ
        if not 0 <= a < num_qubits or pair and (not 0 <= b < num_qubits or a == b):
            for q in (a, b) if pair else (a,):
                if not 0 <= q < num_qubits:
                    raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")
            raise ValueError("gate qubits must be distinct")
    t = TableauEngine(num_qubits)
    t.apply(ops)
    frames: list[int] = []
    cols: list[int] = []
    for q in range(num_qubits):
        bit = 1 << q
        if t.is_random(q):
            flip = t.project(q, 0)
            frames = [f ^ flip if f & bit else f for f in frames]
            frames.append(flip)
            cols.append(bit)
        else:
            cols = [c | bit if f & bit else c for c, f in zip(cols, frames)]
    stab_signs = t.signs >> num_qubits
    o0 = 0
    for q, x in enumerate(t.xcols):
        o0 |= (popcount(x & stab_signs) & 1) << q
    return o0, tuple(cols)


def _counted_indices(seed: int, shots: int, r: int):
    """The 2^r counts (int64) of the shots' r-bit random-bit indices, taken
    ``SHOT_CHUNK`` shots at a time: each chunk adds one ``np.bincount`` into
    the same array (the masked words are below 2^r, so they read as int64
    with no copy)."""
    import numpy as np
    from qgqec.rng import first_words
    mask = np.uint64((1 << r) - 1)
    totals = np.zeros(1 << r, dtype=np.int64)
    for start in range(0, shots, SHOT_CHUNK):
        words = first_words(seed, min(SHOT_CHUNK, shots - start), start) & mask
        totals += np.bincount(words.view(np.int64), minlength=1 << r)
    return totals


# the sampler's memo: a Clifford prefix's map, keyed by (num_qubits, ops)
_prefix_map = lru_cache(maxsize=OUTCOME_MAP_CACHE)(outcome_map)


def sample_shots(num_qubits: int, ops, shots: int, seed: int) -> dict[int, int]:
    """Simulate the Clifford prefix once per memo entry, fold the trailing
    X and Z gates into its reference outcome, then measure `shots` independent
    copies; returns {outcome: count} with keys in ascending random-bit index
    order.

    The trailing run of X/Z ops is a Pauli frame on the prefix's reference
    sample (as in Gidney's Stim): Z changes no outcome, and X on qubit q
    flips bit q of o0.  On the qubit of a random measurement, its column's
    pivot, that is a flip of the shot's own bit, so each column whose pivot
    o0 then has set is XORed into it: pivots are distinct and clear in every
    other column, so o0 moves by the X mask and the columns it pivots.  The
    prefix's map is kept in an ``OUTCOME_MAP_CACHE``-entry memo keyed by
    (num_qubits, prefix ops), so a case encoder is evolved once whatever
    errors follow it.  A trailing qubit outside 0..n-1 raises ValueError.

    Shot s consumes the low r bits of the first word of its stream
    (``rng.first_words``), its random-bit index i, and its outcome is
    entry i of ``gf2.span(cols, o0)``.  So the indices are counted into 2^r
    totals ``SHOT_CHUNK`` shots at a time (``_counted_indices``) and read
    off against that span, the support ``sim.tableau_distribution`` lists:
    memory stays within a few chunks at any shot count.  A bad prefix qubit
    raises ValueError from ``outcome_map`` and r > 16 from ``gf2.span``,
    which is built before the 2^r counts.
    """
    ops = tuple(ops)
    end = len(ops)
    while end and ops[end - 1][0] in (OP_X, OP_Z):
        end -= 1
    o0, cols = _prefix_map(num_qubits, ops[:end])
    for code, q, _ in ops[end:]:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")
        if code == OP_X:
            o0 ^= 1 << q
    for col in cols:
        if o0 & col & -col:
            o0 ^= col
    support = gf2.span(cols, o0)
    totals = _counted_indices(seed, shots, len(cols)).tolist()
    return {o: c for o, c in zip(support, totals) if c}


@lru_cache(maxsize=8)
def _sweep_table(m: int, cws: tuple[int, ...]):
    """(sizes, groups, weights) of a linear code, built on first use.  Type
    i is the sizes[i] positions whose column (bit b = the position's bit in
    cws[2^b]) is u_i; codeword t covers it iff t & u_i has odd weight.
    groups[b] holds, for each t of top bit b, the types t covers, 128 -
    ceil(c_t / 2) and [c_t even], c_t = wt(cw_t).  `weights` keeps each
    swept weight's ``_weight_table``; a code of more than ``SWEEP_CELLS``
    compositions (over all weights) times k is refused up front.  cws must
    equal ``gf2.span`` of its m-bit basis words cws[2^b], as
    ``QCCode.codewords()`` does, so k = 2^n and cws[0] = 0."""
    k = len(cws)
    basis = [cws[1 << b] for b in range(k.bit_length() - 1)]
    if k & (k - 1) or any(not 0 <= word < 1 << m for word in basis) or list(cws) != gf2.span(basis):
        raise ValueError(f"need the 2^n codewords of a linear code on {m} bits, "
                         "each the XOR of its basis words cws[2^b]")
    columns = Counter(sum((word >> p & 1) << b for b, word in enumerate(basis)) for p in range(m))
    if prod(s + 1 for s in columns.values()) * k > SWEEP_CELLS:
        raise ValueError(f"sweep supports at most {SWEEP_CELLS} compositions times codewords")
    terms = [([i for i, u in enumerate(columns) if popcount(t & u) & 1],
              128 - (popcount(cws[t]) + 1) // 2, 1 - popcount(cws[t]) % 2) for t in range(1, k)]
    groups = [terms[(1 << b) - 1:(2 << b) - 1] for b in range(len(basis))]
    return tuple(columns.values()), groups, {}


def _weight_table(sizes: tuple[int, ...], groups, weight: int):
    """(lanes, groups, mults, high) of one weight.  Byte j of lanes[i] holds
    w_i of the weight's j-th composition (w_1..w_T), 0 <= w_i <= sizes[i], in
    lexicographic order; mults[j] = prod C(sizes[i], w_i) is the patterns it
    stands for, and high holds 128 in every lane.  Prefixes are grouped by
    the weight they leave, and a group grows by one comprehension per count
    of the next type, kept only while the remaining types can hold the rest,
    so no level outgrows the result; one sort restores lexicographic order.
    The code's groups come back with the covered types' lanes and their
    constants in every lane."""
    level, room = {weight: ([b""], [1])}, sum(sizes)  # left -> (prefixes, mults)
    for size in sizes:
        room -= size
        grown = {}
        for left, (rows, mults) in level.items():
            for w in range(max(0, left - room), min(size, left) + 1):
                byte, binomial = bytes((w,)), comb(size, w)
                next_rows, next_mults = grown.setdefault(left - w, ([], []))
                next_rows += [row + byte for row in rows]
                next_mults += mults if binomial == 1 else [mult * binomial for mult in mults]
        level = grown
    rows, mults = zip(*sorted(zip(*level[0])))
    packed, ones = b"".join(rows), int.from_bytes(bytes((1,)) * len(rows), "little")
    lanes = [int.from_bytes(packed[i::len(sizes)], "little") for i in range(len(sizes))]
    return lanes, [[([lanes[i] for i in types], threshold * ones, even * ones)
                    for types, threshold, even in group] for group in groups], mults, ones << 7


def sweep_weight(m: int, codewords, weight: int) -> tuple[int, int]:
    """Decode codeword ^ pattern for every codeword of a linear code and
    every m-bit error pattern of exactly `weight` flips.

    Returns (cases, corrected) where a case is one (pattern, codeword) pair
    and corrected means minimum-distance decoding (ties to the smallest
    index, as ``aqecc.decode``) returned that codeword.

    Linearity makes the k - 1 distances D[t] = wt(e ^ cw_t) of a pattern e
    enough: received cw_l ^ e lies at D[l ^ j] from cw_j, and D[0] = weight.
    Decoding returns l iff D[t] > weight for every t != 0 whose top bit is
    set in l and D[t] >= weight for the rest, so with M_b the least D[t]
    over the t of top bit b, the pattern is corrected for
    prod_b ([M_b >= weight] + [M_b > weight]) of the k codewords.

    D depends only on the composition of e over the column types: D[t] -
    weight = c_t - 2 x_t, x_t the flips on the types t covers.  One sum of
    the weight's lanes (``_weight_table``) gives x_t for every composition,
    and adding 128 - ceil(c_t / 2) (127 - floor(c_t / 2)) sets bit 7 where
    D[t] <= weight (< weight); no lane reaches 256.  ORed per top bit, these
    give a byte per lane: j for a factor 2^j, 128 and up for 0
    (``_LANE_FACTOR``), and each lane adds factor times multiplicity in
    exact Python ints.  Nothing decoded is cached.
    """
    if weight < 1 or weight > m:
        return 0, 0
    if m > 64:
        raise ValueError("sweep supports at most 64 physical bits")
    sizes, groups, weights = _sweep_table(m, tuple(codewords))
    if weight not in weights:
        weights[weight] = _weight_table(sizes, groups, weight)
    _, lane_groups, mults, high = weights[weight]
    below = doubled = 0  # lanes with some D[t] < weight; factors 2 per lane
    for group in lane_groups:
        at_most = 0  # lanes with some D[t] <= weight, t of this top bit
        for lanes, threshold, even in group:
            x = sum(lanes, threshold)
            at_most |= x
            below |= x - even
        doubled += (at_most & high ^ high) >> 7
    factors = (doubled | below & high).to_bytes(len(mults), "little")
    return comb(m, weight) << len(groups), sum(map(mul, mults, map(_LANE_FACTOR.__getitem__, factors)))
