"""The numpy decode sweep that ``qgqec._kernels_py.sweep_weight`` replaced,
kept as its reference on codes too wide for the per-pattern loop of
``test_kernels.py`` (up to 64 positions, multiplicities up to C(64, 32)).

``sweep_table`` holds every composition of every weight over the column
types in one table; ``sweep_weight`` takes one integer matmul over the
weight's rows for all the distances D[t] - weight, one
``np.minimum.reduceat`` for every M_b, and sums the multiplicities per
factor in int64 (each sum at most C(m, weight) < 2^63) before the Python-int
total.
"""

from functools import reduce
from math import comb
from operator import mul

import numpy as np


def column_types(m, cws):
    """(sizes, covers): type i is the sizes[i] positions whose column (bit b
    = the position's bit in cws[2^b]) is covers[i]; codeword t covers them
    iff t & covers[i] has odd weight."""
    basis = [cws[1 << b] for b in range(len(cws).bit_length() - 1)]
    columns = {}
    for p in range(m):
        u = sum((word >> p & 1) << b for b, word in enumerate(basis))
        columns[u] = columns.get(u, 0) + 1
    covers = tuple(sorted(columns))
    return tuple(columns[u] for u in covers), covers


def sweep_table(m, cws):
    """(rows, mults, weight_starts, flips, base, top_starts): all prod(m_i +
    1) compositions sorted by weight, those of weight w at
    rows[weight_starts[w]:weight_starts[w + 1]], mults[r] = prod C(m_i, w_i),
    and D[t] - weight = (rows[r] @ flips + base)[t - 1] for t = 1..k-1; the
    t of top bit b start at column top_starts[b]."""
    sizes, covers = column_types(m, cws)
    k = len(cws)
    grid = np.indices([s + 1 for s in sizes], dtype=np.int16).reshape(len(sizes), -1).T
    weights = grid.sum(axis=1)
    order = np.argsort(weights, kind="stable")
    mults = reduce(np.multiply.outer, [np.array([comb(s, j) for j in range(s + 1)], dtype=np.int64)
                                       for s in sizes]).ravel()
    t = np.arange(1, k, dtype=np.int64)
    covered = (np.bitwise_count(np.array(covers, dtype=np.int64)[:, None] & t) & 1).astype(np.int16)
    return (grid[order], mults[order], (0, *np.cumsum(np.bincount(weights)).tolist()),
            -2 * covered, np.array(sizes, dtype=np.int16) @ covered,
            tuple((1 << b) - 1 for b in range(k.bit_length() - 1)))


def sweep_weight(m, cws, weight):
    """(cases, corrected) as ``qgqec._kernels_py.sweep_weight``: a pattern
    is corrected for prod_b ([M_b >= weight] + [M_b > weight]) codewords."""
    if weight < 1 or weight > m:
        return 0, 0
    rows, mults, weight_starts, flips, base, top_starts = sweep_table(m, tuple(cws))
    lo, hi = weight_starts[weight], weight_starts[weight + 1]
    least = np.minimum.reduceat(rows[lo:hi] @ flips + base, top_starts, axis=1)
    factor = np.multiply.reduce(np.sign(least) + 1, axis=1, dtype=np.int64)
    factors = [0] + [1 << j for j in range(len(top_starts) + 1)]
    per_factor = (mults[lo:hi] @ (factor[:, None] == np.array(factors))).tolist()
    return sum(per_factor) * len(cws), sum(map(mul, per_factor, factors))
