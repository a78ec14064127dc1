"""Dense GF(2) linear algebra on integer row-masks.

Rows are width-bit integers with the leftmost vector entry at the most
significant bit, so lexicographic order on bit-vectors equals integer
order.  Everything is deterministic: fixed pivot scan order, canonical
reduced echelon form, canonical null-space basis.
"""

from __future__ import annotations

from qgqec._bits import popcount

MAX_SPAN_VECTORS = 16  # 2^16 entries, a few MB of ints; the presets span at most 4


def row_reduce(rows: list[int], width: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form over GF(2).

    Args:
        rows: row bit-masks.
        width: number of columns.

    Returns:
        (reduced_rows, pivot_cols): nonzero rows of the RREF and the pivot
        column index (0 = leftmost) of each, both in scan order.

    Raises:
        ValueError: a row is negative or has a bit at or past `width`.
    """
    reduced: list[int] = []
    pivot_cols: list[int] = []
    for row in rows:
        if row >> width:
            raise ValueError(f"row {row:#b} is wider than {width} columns")
        cur = row
        for p, r in zip(pivot_cols, reduced):
            if cur >> (width - 1 - p) & 1:
                cur ^= r
        if cur == 0:
            continue
        p = width - cur.bit_length()
        # back-eliminate the new pivot from earlier rows
        for i, r in enumerate(reduced):
            if r >> (width - 1 - p) & 1:
                reduced[i] = r ^ cur
        # keep rows ordered by pivot column
        at = sum(1 for q in pivot_cols if q < p)
        reduced.insert(at, cur)
        pivot_cols.insert(at, p)
    return reduced, pivot_cols


def rank(rows: list[int], width: int) -> int:
    return len(row_reduce(rows, width)[0])


def null_space(rows: list[int], width: int) -> list[int]:
    """Canonical basis of {v : row . v = 0 mod 2 for every row}.

    One basis vector per free column, in ascending column order: entry 1 at
    the free column plus the RREF coefficients at the pivot columns.
    """
    reduced, pivot_cols = row_reduce(rows, width)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = 1 << (width - 1 - free)
        for p, r in zip(pivot_cols, reduced):
            if r >> (width - 1 - free) & 1:
                v |= 1 << (width - 1 - p)
        basis.append(v)
    return basis


def dot(a: int, b: int) -> int:
    """Inner product mod 2 of two bit-masks."""
    return popcount(a & b) & 1


def span(vectors: list[int], offset: int = 0) -> list[int]:
    """Every XOR of a subset of `vectors`, shifted by `offset`, by doubling.

    Entry l is `offset` XOR vectors[i] for each bit i set in l: XOR-ing
    vectors[i] into the 2^i entries so far gives entries 2^i..2^(i+1)-1.
    More than ``MAX_SPAN_VECTORS`` raise ValueError before any is read.
    """
    if len(vectors) > MAX_SPAN_VECTORS:
        raise ValueError(f"span enumerates at most {MAX_SPAN_VECTORS} vectors, got {len(vectors)}")
    out = [offset]
    for v in vectors:
        out += [x ^ v for x in out]
    return out
