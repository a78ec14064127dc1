"""Quasi-cyclic code construction, decoding, and check-operator tests."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgqec import aqecc, gf2, pauli
from qgqec._bits import bits_to_int, int_to_bits, rotl
from qgqec.cases import CaseId

PRESETS = {
    CaseId.C1: (8, 3, 3, 1),
    CaseId.C2: (10, 4, 3, 1),
    CaseId.C3: (13, 1, 5, 2),
    CaseId.C4: (29, 1, 11, 5),
}


def test_rotl():
    assert rotl(0b100, 1, 3) == 0b001  # (a1,a2,a3) -> (a2,a3,a1)
    assert rotl(0b10100, 2, 5) == 0b10010
    for width in range(1, 13):
        for v in range(2 ** min(width, 8)):
            assert rotl(v, width, width) == v
            out = v
            for _ in range(width):
                out = rotl(out, 1, width)
            assert out == v


def test_min_distance():
    assert aqecc.min_distance(["111"]) == 3
    assert aqecc.min_distance(["10", "01"]) == 1
    assert aqecc.min_distance(["110", "011"]) == 2
    with pytest.raises(ValueError):
        aqecc.min_distance([])
    with pytest.raises(ValueError):
        aqecc.min_distance(["000"])
    with pytest.raises(ValueError, match="same length"):
        aqecc.min_distance(["110", "0001"])


def test_min_distance_against_exhaustive_oracle():
    rnd = random.Random(31)
    for _ in range(50):
        m = rnd.randint(3, 10)
        k = rnd.randint(1, 4)
        rows = []
        while len(rows) < k:
            v = rnd.randrange(1, 1 << m)
            rows.append(format(v, f"0{m}b"))
        ints = [bits_to_int(r) for r in rows]
        weights = []
        for combo in range(1, 1 << k):
            v = 0
            for j in range(k):
                if combo >> j & 1:
                    v ^= ints[j]
            weights.append(bin(v).count("1"))
        assert aqecc.min_distance(rows) == min(weights)


def gray_code_min_distance(ints):
    """The brute-force oracle: walk all 2^N - 1 nonzero combinations in
    Gray-code order, one row XOR per step, and keep the least weight."""
    best, acc = None, 0
    for i in range(1, 1 << len(ints)):
        acc ^= ints[(i & -i).bit_length() - 1]
        if best is None or acc.bit_count() < best:
            best = acc.bit_count()
    return best


@st.composite
def generator_rows(draw):
    """(m, rows): 1-16 rows of 1-64 bits, not all zero; about half the time
    one row is set to the XOR of some others (zero and repeated rows
    included), so the rows are dependent."""
    m = draw(st.integers(1, 64))
    rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=16))
    if len(rows) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        others = draw(st.lists(st.sampled_from([j for j in range(len(rows)) if j != i]), unique=True))
        rows[i] = 0
        for j in others:
            rows[i] ^= rows[j]
    assume(any(rows))
    return m, rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(generator_rows())
def test_min_distance_equals_gray_code_oracle(code):
    m, ints = code
    d = aqecc.min_distance([format(v, f"0{m}b") for v in ints])
    assert d == gray_code_min_distance(ints)
    assert (d == 0) == (gf2.rank(ints, m) < len(ints))


def test_min_distance_takes_at_most_16_rows():
    assert gf2.MAX_SPAN_VECTORS == 16
    identity = [format(1 << j, "017b") for j in range(17)]
    assert aqecc.min_distance(identity[:16]) == 1
    with pytest.raises(ValueError, match="span enumerates at most 16 vectors, got 17"):
        aqecc.min_distance(identity)


def test_qc_code_checks_its_rows():
    rows = ("00000111", "00011100", "01110000")
    aqecc.QCCode(CaseId.C1, rows)
    with pytest.raises(ValueError, match="N bit-vectors of length M"):
        aqecc.QCCode(CaseId.C1, rows[:2])
    with pytest.raises(ValueError, match="linearly dependent"):
        aqecc.QCCode(CaseId.C1, rows[:2] + ("00011011",))
    # independent rows of least weight 2, not the spec's 3
    with pytest.raises(ValueError, match="does not match spec"):
        aqecc.QCCode(CaseId.C1, ("00000011", "00011100", "01110000"))


def test_build_presets_match_parameters():
    for case, (m, n, d, p) in PRESETS.items():
        code = aqecc.build_qc_code(case)
        assert code.spec is case
        assert code.spec.m_physical == m
        assert code.spec.n_logical == n
        assert code.spec.distance == d
        assert code.spec.capability == p
        assert aqecc.min_distance(list(code.generator_rows)) == d
        assert len(code.base) == m
        assert gf2.rank([bits_to_int(r) for r in code.generator_rows], m) == n


def test_build_known_bases():
    assert aqecc.build_qc_code(CaseId.C3).base == "1111100000000"
    c4 = aqecc.build_qc_code(CaseId.C4)
    assert c4.base == "1" * 11 + "0" * 18
    # deterministic lexicographic search results
    assert aqecc.build_qc_code(CaseId.C1).base == "00000111"
    assert aqecc.build_qc_code(CaseId.C2).base == "0000000111"
    c1 = aqecc.build_qc_code(CaseId.C1)
    assert c1.stride == 2
    assert list(c1.generator_rows) == ["00000111", "00011100", "01110000"]
    c2 = aqecc.build_qc_code(CaseId.C2)
    assert c2.stride == 2
    assert list(c2.generator_rows) == ["0000000111", "0000011100", "0001110000", "0111000000"]


def test_rows_are_cyclic_shifts_of_base():
    for case in PRESETS:
        code = aqecc.build_qc_code(case)
        m = code.spec.m_physical
        for j, row in enumerate(code.generator_rows):
            assert row == int_to_bits(rotl(bits_to_int(code.base), j * code.stride, m), m)


def test_codewords_are_indexed_by_logical_bits():
    c3 = aqecc.build_qc_code(CaseId.C3)
    assert c3.codewords() == (0, 0b1111100000000)
    c1 = aqecc.build_qc_code(CaseId.C1)
    r1, r2 = c1.generator_rows[0], c1.generator_rows[1]
    assert c1.codewords()[0b110] == bits_to_int(r1) ^ bits_to_int(r2)


def test_encode_is_gf2_linear():
    rnd = random.Random(13)
    for case in (CaseId.C1, CaseId.C2):
        code = aqecc.build_qc_code(case)
        n = code.spec.n_logical
        for _ in range(30):
            a = rnd.randrange(1 << n)
            b = rnd.randrange(1 << n)
            cws = code.codewords()
            assert cws[a] ^ cws[b] == cws[a ^ b]


def test_decode_identity_and_errors():
    c3 = aqecc.build_qc_code(CaseId.C3)
    cw = int_to_bits(c3.codewords()[1], 13)
    assert aqecc.decode(c3, cw) == ("1", cw, 0)
    # all 78 double flips decode back
    m = 13
    for i, j in itertools.combinations(range(m), 2):
        flipped = bits_to_int(cw) ^ (1 << (m - 1 - i)) ^ (1 << (m - 1 - j))
        logical, corrected, weight = aqecc.decode(c3, format(flipped, f"0{m}b"))
        assert (logical, corrected, weight) == ("1", cw, 2)
    with pytest.raises(ValueError):
        aqecc.decode(c3, "01")


def test_decode_all_single_flips_c1():
    c1 = aqecc.build_qc_code(CaseId.C1)
    m = 8
    for l in range(8):
        cw = int_to_bits(c1.codewords()[l], m)
        for pos in range(m):
            flipped = bits_to_int(cw) ^ (1 << (m - 1 - pos))
            logical, corrected, weight = aqecc.decode(c1, format(flipped, f"0{m}b"))
            assert logical == format(l, "03b")
            assert corrected == cw
            assert weight == 1


def test_decode_tie_breaks_to_smallest_logical():
    c1 = aqecc.build_qc_code(CaseId.C1)
    m = 8
    cws = c1.codewords()
    ties_seen = 0
    for received in range(1 << m):
        dists = [bin(received ^ cw).count("1") for cw in cws]
        best = min(dists)
        argmin = [l for l, d in enumerate(dists) if d == best]
        logical, corrected, weight = aqecc.decode(c1, format(received, f"0{m}b"))
        assert weight == best
        assert logical == format(argmin[0], "03b")  # smallest logical wins ties
        assert corrected == format(cws[argmin[0]], f"0{m}b")
        if len(argmin) > 1:
            ties_seen += 1
    assert ties_seen > 0


def test_check_operators_commutation():
    for case in PRESETS:
        code = aqecc.build_qc_code(case)
        m = code.spec.m_physical
        checks = aqecc.stabilizer_check_operators(code)
        assert len(checks) == len(code.checks)
        logicals = [
            pauli.x_operator(m, [i for i, c in enumerate(row) if c == "1"])
            for row in code.generator_rows
        ]
        for op, support in zip(checks, code.checks):
            assert not op.is_identity()
            for logical in logicals:
                assert pauli.commutes(op, logical)
            for position, bit in enumerate(support):
                err = pauli.x_operator(m, [position])
                if bit == "1":
                    assert not pauli.commutes(op, err)
                else:
                    assert pauli.commutes(op, err)


def test_checks_span_full_null_space():
    for case in PRESETS:
        code = aqecc.build_qc_code(case)
        m, n = code.spec.m_physical, code.spec.n_logical
        assert len(code.checks) == m - n


def test_invalid_code_rejected():
    c1 = aqecc.build_qc_code(CaseId.C1)
    with pytest.raises(ValueError):
        aqecc.QCCode(c1.spec, ("00000111",) * 3)


def test_build_unknown_case():
    with pytest.raises(ValueError):
        aqecc.build_qc_code("C9")


def test_build_qc_code_is_built_once_per_case():
    for case in CaseId:
        code = aqecc.build_qc_code(case)
        assert aqecc.build_qc_code(case.name.lower()) is code
        assert aqecc.build_qc_code(case.name) is code
