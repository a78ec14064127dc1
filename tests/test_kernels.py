"""Kernel tests: the affine shot sampler against the per-shot tableau loop,
the one-pass outcome map against its r + 1-pass definition, the vectorised
RNG against the scalar streams, and the linear numpy decode sweep against
the per-pattern k^2 decode loop it replaced (random linear codes, small
chunk sizes so chunk boundaries are crossed).
"""

import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgqec import aqecc, experiments, gf2, sim
from qgqec.backend import kernels as pure
from qgqec.cases import CaseId
from qgqec.rng import ShotStream, first_words


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def clifford_ops(draw, max_qubits=64, max_gates=120):
    """(n, ops) with opcodes as ``sim._clifford_ops`` emits them."""
    n = draw(st.integers(1, max_qubits))
    ops = []
    for _ in range(draw(st.integers(0, max_gates))):
        code = draw(st.integers(0, 4 if n >= 2 else 2))
        a = draw(st.integers(0, n - 1))
        b = (a + draw(st.integers(1, n - 1))) % n if code >= 3 else 0
        ops.append((code, a, b))
    return n, ops


def per_shot_reference(n, ops, shots, seed):
    """The sampler's definition: one tableau copy measured per shot stream."""
    base = pure.TableauEngine(n)
    base.apply(ops)
    return [base.copy().measure_all(ShotStream(seed, s)) for s in range(shots)]


@PROPERTY
@given(clifford_ops(), st.integers(1, 24), st.integers(-(1 << 64), 1 << 64))
def test_sample_shots_equals_per_shot_loop(circuit, shots, seed):
    n, ops = circuit
    assert pure.sample_shots(n, ops, shots, seed) == per_shot_reference(n, ops, shots, seed)


def test_sample_shots_with_64_random_measurements():
    n = 64
    ops = [(0, q, 0) for q in range(n)] + [(3, q, (q + 5) % n) for q in range(0, n, 3)]
    ops += [(2, 7, 0), (4, 1, 40), (1, 63, 0)]
    base = pure.TableauEngine(n)
    base.apply(ops)
    _, cols = pure.outcome_map(base)
    assert len(cols) == 64
    assert pure.sample_shots(n, ops, 40, 11) == per_shot_reference(n, ops, 40, 11)


@pytest.mark.parametrize("case", list(CaseId))
@pytest.mark.parametrize("errors", ["none", "within", "beyond"])
def test_sample_shots_on_case_circuits(case, errors):
    count = {"none": 0, "within": case.capability, "beyond": case.capability + 2}[errors]
    positions = tuple(range(0, 2 * count, 2))
    circuit = experiments.build_case_circuit(case, "aqecc", positions)
    ops = sim._clifford_ops(circuit)
    n = circuit.num_qubits
    assert pure.sample_shots(n, ops, 200, 42) == per_shot_reference(n, ops, 200, 42)


class FixedBits:
    """Bit source replaying one integer, low bit first; counts bits used."""

    def __init__(self, word):
        self.word = word
        self.used = 0

    def next_bit(self):
        bit = (self.word >> self.used) & 1
        self.used += 1
        return bit


def multi_pass_reference(engine):
    """The outcome map's definition: measure one copy with every random bit
    0, then one copy per random measurement i with only bit i set."""
    zeros = FixedBits(0)
    o0 = engine.copy().measure_all(zeros)
    cols = [engine.copy().measure_all(FixedBits(1 << i)) ^ o0 for i in range(zeros.used)]
    return o0, cols


@PROPERTY
@given(clifford_ops())
def test_outcome_map_equals_multi_pass_definition(circuit):
    n, ops = circuit
    engine = pure.TableauEngine(n)
    engine.apply(ops)
    assert pure.outcome_map(engine) == multi_pass_reference(engine)


def test_outcome_map_is_one_copy_and_r_projections():
    n = 64
    ops = [(0, q, 0) for q in range(n)] + [(3, q, (q + 5) % n) for q in range(0, n, 3)]
    engine = pure.TableauEngine(n)
    engine.apply(ops)
    expected = multi_pass_reference(engine)
    assert len(expected[1]) == 64
    cls = pure.TableauEngine
    with mock.patch.object(cls, "copy", autospec=True, side_effect=cls.copy) as copy, \
            mock.patch.object(cls, "project", autospec=True, side_effect=cls.project) as project:
        assert pure.outcome_map(engine) == expected
    assert copy.call_count == 1
    assert project.call_count == 64


@PROPERTY
@given(clifford_ops(max_qubits=20, max_gates=60))
def test_outcome_map_columns_independent_and_engine_unchanged(circuit):
    n, ops = circuit
    engine = pure.TableauEngine(n)
    engine.apply(ops)
    before = (engine.xs[:], engine.zs[:], engine.rs[:])
    o0, cols = pure.outcome_map(engine)
    assert (engine.xs, engine.zs, engine.rs) == before
    # column i flips the qubit of the i-th random measurement and none
    # measured before it, so the columns are independent
    lows = [(col & -col).bit_length() - 1 for col in cols]
    assert lows == sorted(set(lows))
    assert 0 <= o0 < 1 << n and all(0 < col < 1 << n for col in cols)


@PROPERTY
@given(st.integers(-(1 << 65), 1 << 65), st.integers(0, 300))
def test_first_words_equal_scalar_streams(seed, shots):
    words = first_words(seed, shots)
    assert words.dtype.name == "uint64"
    assert words.tolist() == [ShotStream(seed, s).next_word() for s in range(shots)]


def test_engine_copy_is_independent():
    eng = pure.TableauEngine(3)
    eng.apply([(0, 0, 0), (3, 0, 1)])
    dup = eng.copy()
    assert dup.is_random(0)
    dup.project(0, 1)
    # original unchanged: still random on qubit 0
    assert eng.is_random(0)


def test_tableau_qubit_caps():
    with pytest.raises(ValueError):
        pure.TableauEngine(0)
    with pytest.raises(ValueError):
        pure.TableauEngine(65)
    pure.TableauEngine(64)  # boundary is allowed


# -- decode sweep -----------------------------------------------------------


def per_pattern_reference(m, cws, weight):
    """The sweep's definition: decode every codeword ^ pattern against all
    k codewords (k^2 popcounts per pattern, ties to the smallest index)."""
    if weight < 1 or weight > m:
        return 0, 0
    cases = corrected = 0
    for flips in combinations(range(m), weight):
        pattern = sum(1 << b for b in flips)
        for l, cw in enumerate(cws):
            received = cw ^ pattern
            best_l, best_d = 0, m + 1
            for j, other in enumerate(cws):
                dist = (received ^ other).bit_count()
                if dist < best_d:
                    best_l, best_d = j, dist
            cases += 1
            corrected += best_l == l
    return cases, corrected


def span(rows):
    """Codewords indexed like ``QCCode.codewords()``: bit n-1-j of the index
    selects row j."""
    n = len(rows)
    out = []
    for l in range(1 << n):
        v = 0
        for j in range(n):
            if l >> (n - 1 - j) & 1:
                v ^= rows[j]
        out.append(v)
    return out


@st.composite
def linear_codes(draw, max_bits=14, max_logical=4):
    """(m, full-rank generator rows) with m <= max_bits, n <= max_logical."""
    m = draw(st.integers(1, max_bits))
    n = draw(st.integers(1, min(m, max_logical)))
    rows = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=n, max_size=n))
    assume(gf2.rank(rows, m) == n)
    return m, rows


@PROPERTY
@given(linear_codes(), st.data())
def test_sweep_weight_equals_per_pattern_loop(code, data):
    m, rows = code
    cws = span(rows)
    weight = data.draw(st.integers(1, m))
    chunk = data.draw(st.integers(1, 40))
    with mock.patch.object(pure, "SWEEP_CHUNK", chunk):
        assert pure.sweep_weight(m, cws, weight) == per_pattern_reference(m, cws, weight)


@PROPERTY
@given(linear_codes(max_bits=20, max_logical=5))
def test_sweep_totals_and_capability(code):
    m, rows = code
    cws = span(rows)
    d = aqecc.min_distance([format(r, f"0{m}b") for r in rows])
    p = aqecc.correctable_errors(d)
    for w in range(0, m + 2):
        cases, corrected = pure.sweep_weight(m, cws, w)
        assert cases == (len(cws) * comb(m, w) if 1 <= w <= m else 0)
        assert 0 <= corrected <= cases
        if 1 <= w <= p:
            assert corrected == cases


def test_sweep_weight_outside_1_to_m_is_empty():
    assert pure.sweep_weight(5, [0b10101], 0) == (0, 0)
    cws = span([0b1110000, 0b0001111])
    assert pure.sweep_weight(7, cws, 0) == (0, 0)
    assert pure.sweep_weight(7, cws, 8) == (0, 0)
    assert pure.sweep_weight(7, cws, 99) == (0, 0)
    assert pure.sweep_weight(7, cws, 7) == (4, 0)


def test_sweep_weight_rejects_non_linear_codeword_lists():
    cws = span([0b1110000, 0b0001111])
    assert pure.sweep_weight(7, cws, 1) == (28, 28)
    bad = {
        "no entries": [],
        "three entries": cws[:3],
        "nonzero first word": [0b1] + cws[1:],
        "not closed under XOR": cws[:3] + [0b1010101],
        "wider than m bits": span([0b11100000, 0b0001111]),
    }
    for name, words in bad.items():
        with pytest.raises(ValueError):
            pure.sweep_weight(7, words, 1)
    with pytest.raises(ValueError):
        pure.sweep_weight(65, [0], 1)


@PROPERTY
@given(linear_codes(max_logical=4), st.data())
def test_sweep_weight_rejects_one_corrupted_codeword(code, data):
    m, rows = code
    cws = span(rows)
    # any change to a basis word cws[2^b] leaves another linear list
    index = data.draw(st.sampled_from([l for l in range(len(cws)) if l & (l - 1) or l == 0]))
    cws[index] ^= 1 << data.draw(st.integers(0, m - 1))
    with pytest.raises(ValueError):
        pure.sweep_weight(m, cws, 1)


@PROPERTY
@given(st.integers(1, 22), st.data())
def test_weight_masks_cover_each_mask_once_in_bounded_chunks(m, data):
    weight = data.draw(st.integers(0, m))
    total = comb(m, weight)
    limit = data.draw(st.integers(max(1, total // 2000), 4096))
    chunks = list(pure._weight_masks(m, weight, limit))
    assert all(0 < len(c) <= limit for c in chunks)
    masks = [int(v) for c in chunks for v in c.tolist()]
    assert len(masks) == len(set(masks)) == total
    assert all(0 <= v < 1 << m and v.bit_count() == weight for v in masks)


@pytest.mark.parametrize("chunk", [7, 50])
def test_sweep_chunks_never_exceed_the_constant(chunk):
    seen = []
    masks = pure._weight_masks

    def recording(m, weight, limit):
        for errors in masks(m, weight, limit):
            if m == 29:  # the chunks sweep_weight decodes, not the high parts
                seen.append(len(errors))
            yield errors

    code = aqecc.build_qc_code("C4")
    with mock.patch.object(pure, "SWEEP_CHUNK", chunk), \
            mock.patch.object(pure, "_weight_masks", recording):
        assert pure.sweep_weight(29, code.codewords(), 3) == (2 * comb(29, 3), 2 * comb(29, 3))
    assert sum(seen) == comb(29, 3) and max(seen) <= chunk


@pytest.mark.parametrize("chunk", [512, 4096])
def test_sweep_memory_is_bounded_by_the_chunk(chunk):
    # a chunk's arrays (masks, XOR temporary, int64 counts) take about 50
    # bytes per pattern; C4 at weight 8 has 4.3M patterns
    cws = aqecc.build_qc_code("C4").codewords()
    pure._low_table()
    with mock.patch.object(pure, "SWEEP_CHUNK", chunk):
        for weight in (6, 8):
            tracemalloc.start()
            try:
                pure.sweep_weight(29, cws, weight)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100 * chunk + 32768


@pytest.mark.parametrize("case", list(CaseId))
def test_sweep_weight_on_presets_equals_per_pattern_loop(case):
    code = aqecc.build_qc_code(case)
    m = case.m_physical
    cws = code.codewords()
    for w in (1, case.capability, case.capability + 1) if m > 14 else range(m + 1):
        with mock.patch.object(pure, "SWEEP_CHUNK", 50):
            assert pure.sweep_weight(m, cws, w) == per_pattern_reference(m, cws, w)
