"""GF(2) elimination tests with a brute-force span oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgqec import gf2


def span_size(rows):
    seen = {0}
    for r in rows:
        seen |= {s ^ r for s in seen}
    return len(seen)


def test_rank_matches_span_oracle():
    rnd = random.Random(9)
    for _ in range(200):
        width = rnd.randint(1, 10)
        rows = [rnd.randrange(1 << width) for _ in range(rnd.randint(1, 6))]
        assert 2 ** gf2.rank(rows, width) == span_size(rows)


def test_row_reduce_is_canonical():
    width = 6
    rows = [0b110100, 0b011010, 0b101110]
    reduced, pivots = gf2.row_reduce(rows, width)
    # same row space presented in any order reduces identically
    rnd = random.Random(1)
    for _ in range(10):
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        mixed = [shuffled[0], shuffled[0] ^ shuffled[1], shuffled[2] ^ shuffled[1]]
        assert gf2.row_reduce(mixed, width) == (reduced, pivots)
    assert pivots == sorted(pivots)


def test_null_space_orthogonal_and_complete():
    rnd = random.Random(17)
    for _ in range(100):
        width = rnd.randint(2, 12)
        rows = [rnd.randrange(1 << width) for _ in range(rnd.randint(1, 5))]
        basis = gf2.null_space(rows, width)
        assert len(basis) == width - gf2.rank(rows, width)
        for v in basis:
            assert all(gf2.dot(v, r) == 0 for r in rows)
        # basis vectors are independent
        assert 2 ** len(basis) == span_size(basis) if basis else True


def test_null_space_of_empty_and_full():
    assert gf2.null_space([], 3) == [0b100, 0b010, 0b001]
    full = [0b100, 0b010, 0b001]
    assert gf2.null_space(full, 3) == []
    for rows in ([0b111], [0b01, 0b100], [-1]):  # a bit at or past column 2
        for call in (gf2.row_reduce, gf2.rank, gf2.null_space):
            with pytest.raises(ValueError, match="wider than 2 columns"):
                call(rows, 2)


def test_dot():
    assert gf2.dot(0b101, 0b100) == 1
    assert gf2.dot(0b101, 0b111) == 0
    assert gf2.dot(0, 0b111) == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, (1 << 64) - 1), max_size=10), st.integers(0, (1 << 64) - 1))
def test_span_equals_per_index_definition(vectors, offset):
    """Entry l is offset XOR vectors[i] for each bit i set in l."""
    out = gf2.span(vectors, offset)
    assert len(out) == 1 << len(vectors)
    for l, entry in enumerate(out):
        want = offset
        for i, v in enumerate(vectors):
            if l >> i & 1:
                want ^= v
        assert entry == want


class _Unread(list):
    """A list whose entries may not be read: ``span`` must refuse it from
    its length alone."""

    def __iter__(self):
        raise AssertionError("span read its vectors")


def test_span_takes_at_most_16_vectors():
    """16 vectors give all 2^16 entries; a 17th is refused with ValueError
    before any vector is read or any entry built."""
    assert gf2.MAX_SPAN_VECTORS == 16
    out = gf2.span([1 << i for i in range(16)], 1 << 20)
    assert len(out) == 65_536 and out == [(1 << 20) | l for l in range(65_536)]
    with pytest.raises(ValueError, match="span enumerates at most 16 vectors, got 17"):
        gf2.span(_Unread(range(17)))
    with pytest.raises(AssertionError, match="span read its vectors"):
        gf2.span(_Unread(range(16)))  # within the bound, the vectors are read
