"""Kernel tests: the column-major tableau against the row-form reference
(``row_tableau.RowTableau``) after every gate sequence and every projection,
the affine outcome map against the reference's per-shot loop shot by shot
at up to 64 random measurements, the shot sampler's histogram against it at
up to ``gf2.MAX_SPAN_VECTORS`` (at every chunk size, one shot included, and
its refusal past that; trailing X/Z runs folded into the memoized prefix map
also against the full circuit's own map), the one-pass outcome map against
its r + 1-pass definition on the reference and as the reduced echelon basis
that fold relies on, the vectorised
RNG against the scalar streams, and the composition decode sweep against
the per-pattern k^2 decode loop (random linear codes with repeated, zero
and all-distinct columns), against the numpy composition sweep it replaced
(``sweep_reference``) on codes of up to 64 positions, and against a
Python-int composition reference beyond int64.
"""

import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from qgqec import aqecc, experiments, gf2, sim
from qgqec.backend import kernels as pure
from qgqec.cases import CaseId
from qgqec.circuits import Circuit, Gate
from qgqec.rng import first_words
import sweep_reference
from row_tableau import RowTableau
from sim_reference import ShotStream, outcome_of_index, per_shot_reference


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# The same examples, reported unshrunk: shrinking re-runs per-shot and
# r + 1-pass references of up to 70 ms per 64-qubit example, which stalled a
# failing run for minutes.
PROPERTY_UNSHRUNK = settings(PROPERTY, phases=[p for p in Phase if p is not Phase.shrink])


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


def as_rows(engine):
    """The column tableau as the reference's (xs, zs, rs) rows."""
    n = engine.n
    xs = [sum((col >> i & 1) << q for q, col in enumerate(engine.xcols)) for i in range(2 * n)]
    zs = [sum((col >> i & 1) << q for q, col in enumerate(engine.zcols)) for i in range(2 * n)]
    return xs, zs, [engine.signs >> i & 1 for i in range(2 * n)]


@PROPERTY_UNSHRUNK
@given(clifford_ops())
def test_column_tableau_equals_row_reference_after_apply(circuit):
    n, ops = circuit
    engine, reference = pure.TableauEngine(n), RowTableau(n)
    engine.apply(ops)
    reference.apply(ops)
    assert as_rows(engine) == (reference.xs, reference.zs, reference.rs)


@PROPERTY_UNSHRUNK
@given(clifford_ops(), st.integers(0, (1 << 64) - 1))
def test_column_tableau_equals_row_reference_after_every_projection(circuit, bits):
    """A measure pass, each random qubit projected to the next drawn bit:
    same randomness, same replaced-stabilizer X mask, and the same rows,
    destabilizer signs included, after every projection."""
    n, ops = circuit
    engine, reference = pure.TableauEngine(n), RowTableau(n)
    engine.apply(ops)
    reference.apply(ops)
    for q in range(n):
        assert engine.is_random(q) == reference.is_random(q)
        if engine.is_random(q):
            bit, bits = bits & 1, bits >> 1
            assert engine.project(q, bit) == reference.project(q, bit)
            assert as_rows(engine) == (reference.xs, reference.zs, reference.rs)


def index_histogram(o0, cols, shots, seed):
    """(outcome, count) per sampled random-bit index (the low r bits of each
    shot's first word), in ascending index order, each index mapped by
    ``outcome_of_index``."""
    indices = first_words(seed, shots) & np.uint64((1 << len(cols)) - 1)
    return [(outcome_of_index(o0, cols, i), count)
            for i, count in sorted(Counter(indices.tolist()).items())]


def assert_sampler_matches_reference(n, ops, shots, seed):
    """Shot by shot, the outcome map at each shot's random-bit index is the
    per-shot loop's outcome, at any r <= 64.  At r <= ``MAX_SPAN_VECTORS``
    the sampler's histogram is the loop's, keys in ascending index order;
    past it the sampler refuses."""
    reference = per_shot_reference(n, ops, shots, seed)
    o0, cols = pure.outcome_map(n, ops)
    indices = first_words(seed, shots) & np.uint64((1 << len(cols)) - 1)
    assert [outcome_of_index(o0, cols, i) for i in indices.tolist()] == reference
    if len(cols) > gf2.MAX_SPAN_VECTORS:
        with pytest.raises(ValueError, match="span enumerates at most 16 vectors"):
            pure.sample_shots(n, ops, shots, seed)
        return
    histogram = list(pure.sample_shots(n, ops, shots, seed).items())
    assert histogram == index_histogram(o0, cols, shots, seed)
    assert dict(histogram) == Counter(reference)


def random_bits(n, ops):
    return len(pure.outcome_map(n, ops)[1])


# 16 random measurements, MAX_SPAN_VECTORS: the widest register sampled;
# qubits 16 and 17 are deterministic given the others
SIXTEEN_RANDOM = (18, [(0, q, 0) for q in range(16)]
                  + [(3, 0, 16), (3, 5, 16), (3, 9, 17), (1, 17, 0), (4, 2, 3), (2, 4, 0)])


@PROPERTY_UNSHRUNK
@given(clifford_ops(), st.integers(1, 24), st.integers(-(1 << 64), 1 << 64))
@example(SIXTEEN_RANDOM, 24, 5)
def test_sample_shots_equals_per_shot_loop(circuit, shots, seed):
    n, ops = circuit
    assert_sampler_matches_reference(n, ops, shots, seed)


@PROPERTY
@given(clifford_ops(max_gates=60), st.integers(1, 40), st.integers(-(1 << 64), 1 << 64))
@example(SIXTEEN_RANDOM, 40, 7)
def test_sample_shots_any_chunk_size_gives_one_histogram(circuit, shots, seed):
    n, ops = circuit
    assume(random_bits(n, ops) <= gf2.MAX_SPAN_VECTORS)
    whole = pure.sample_shots(n, ops, shots, seed)
    assert pure.SHOT_CHUNK >= shots  # one chunk
    for chunk in range(1, shots + 1):
        with mock.patch.object(pure, "SHOT_CHUNK", chunk):
            # same counts, inserted in the same ascending index order
            assert list(pure.sample_shots(n, ops, shots, seed).items()) == list(whole.items())


@pytest.mark.parametrize("seed", [0, 13])
def test_sample_shots_at_the_histogram_boundary(seed):
    """r = 16 = MAX_SPAN_VECTORS: each chunk adds one np.bincount into 2^16
    totals, whatever the chunk size, and gives the per-shot histogram in
    the same key order; r = 17 is refused before any shot is drawn."""
    n, ops = SIXTEEN_RANDOM
    assert random_bits(n, ops) == gf2.MAX_SPAN_VECTORS == 16
    histograms = []
    for chunk, bincounts in ((1 << 16, 1), (7, 43)):
        with mock.patch.object(pure, "SHOT_CHUNK", chunk), \
                mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
            histograms.append(list(pure.sample_shots(n, ops, 300, seed).items()))
        assert bincount.call_count == bincounts
    assert histograms[0] == histograms[1]
    assert dict(histograms[0]) == Counter(per_shot_reference(n, ops, 300, seed))
    seventeen = [(pure.OP_H, q, 0) for q in range(17)]
    for suffix in ([], [(pure.OP_X, 3, 0)]):
        assert random_bits(17, seventeen + suffix) == 17
        with mock.patch.object(np, "bincount") as bincount, \
                pytest.raises(ValueError, match="span enumerates at most 16 vectors, got 17"):
            pure.sample_shots(17, seventeen + suffix, 300, seed)
        assert bincount.call_count == 0


@st.composite
def prefix_and_pauli_suffix(draw):
    """(n, ops): a Clifford prefix, then a run of X/Z ops that puts an X on
    a random and on a deterministic qubit of the prefix, where it has them,
    among drawn X's and Z's on any qubit."""
    n, prefix = draw(clifford_ops(max_qubits=20, max_gates=60))
    random_qubits = [(col & -col).bit_length() - 1 for col in pure.outcome_map(n, prefix)[1]]
    deterministic = sorted(set(range(n)) - set(random_qubits))
    suffix = [(pure.OP_X, draw(st.sampled_from(qubits)), 0)
              for qubits in (random_qubits, deterministic) if qubits]
    suffix += draw(st.lists(st.tuples(st.sampled_from([pure.OP_X, pure.OP_Z]),
                                      st.integers(0, n - 1), st.just(0)), max_size=8))
    return n, prefix + draw(st.permutations(suffix))


@PROPERTY_UNSHRUNK
@given(prefix_and_pauli_suffix(), st.integers(1, 24), st.integers(-(1 << 64), 1 << 64))
def test_sample_shots_folds_trailing_paulis_into_the_prefix_map(circuit, shots, seed):
    """The memoized prefix map with the X/Z run folded in samples what the
    per-shot loop measures, and what the full circuit's own outcome map
    gives, key for key in the same order."""
    n, ops = circuit
    assert_sampler_matches_reference(n, ops, shots, seed)
    o0, cols = pure.outcome_map(n, ops)
    assume(len(cols) <= gf2.MAX_SPAN_VECTORS)
    unmemoized = index_histogram(o0, cols, shots, seed)
    assert list(pure.sample_shots(n, ops, shots, seed).items()) == unmemoized


def test_sample_shots_evolves_a_prefix_once_while_memoized():
    circuit = experiments.build_case_circuit(CaseId.C4)
    n, prefix = circuit.num_qubits, sim._clifford_ops(circuit)
    suffixes = ([(pure.OP_X, 3, 0)], [(pure.OP_Z, 0, 0), (pure.OP_X, 11, 0)], [])
    pure._prefix_map.cache_clear()
    cls = pure.TableauEngine
    with mock.patch.object(cls, "apply", autospec=True, side_effect=cls.apply) as apply:
        results = [pure.sample_shots(n, prefix + suffix, 50, 9) for suffix in suffixes]
    assert apply.call_count == 1
    info = pure._prefix_map.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (2, 1, pure.OUTCOME_MAP_CACHE)
    for suffix, result in zip(suffixes, results):
        assert result == Counter(per_shot_reference(n, prefix + suffix, 50, 9))
    # the memo stays bounded however many prefixes pass through it
    for q in range(pure.OUTCOME_MAP_CACHE + 5):
        pure.sample_shots(n, prefix + [(pure.OP_H, q, 0), (pure.OP_X, q, 0)], 8, q)
    assert pure._prefix_map.cache_info().currsize == pure.OUTCOME_MAP_CACHE <= 64


@pytest.mark.parametrize("suffix", [[(1, 3, 0)], [(2, 3, 0)], [(1, -1, 0)], [(2, -3, 0)],
                                    [(1, 0, 0), (2, 7, 0)]])
def test_sample_shots_refuses_a_trailing_qubit_out_of_range(suffix):
    for prefix in ([], [(pure.OP_H, 0, 0), (pure.OP_CNOT, 0, 2)]):
        with pytest.raises(ValueError, match="out of range for 3 qubits"):
            pure.sample_shots(3, prefix + suffix, 16, 1)


@pytest.mark.parametrize("op, message", [
    ((pure.OP_H, -1, 0), "qubit -1 out of range for 3 qubits"),
    ((pure.OP_Z, 3, 0), "qubit 3 out of range for 3 qubits"),
    ((pure.OP_CNOT, 0, -1), "qubit -1 out of range for 3 qubits"),
    ((pure.OP_CZ, 5, 1), "qubit 5 out of range for 3 qubits"),
    ((pure.OP_CNOT, 1, 1), "gate qubits must be distinct"),
    ((pure.OP_CZ, 2, 2), "gate qubits must be distinct"),
])
def test_sample_shots_and_tableau_distribution_refuse_a_bad_prefix_op(op, message):
    """A prefix op reaches the tableau, so ``outcome_map`` checks its
    qubits before it builds the engine: with or without a trailing X/Z run,
    in ``sample_shots`` and in ``sim.tableau_distribution`` alike."""
    name = {pure.OP_H: "H", pure.OP_Z: "Z", pure.OP_CNOT: "CNOT", pure.OP_CZ: "CZ"}[op[0]]
    circuit = Circuit(3).h(0)
    circuit.gates.append(Gate(name, op[1:] if op[0] >= pure.OP_CNOT else op[1:2]))
    circuit.h(1)
    ops = sim._clifford_ops(circuit)
    with mock.patch.object(pure, "TableauEngine") as engine:
        for suffix in ([], [(pure.OP_X, 2, 0)]):
            with pytest.raises(ValueError, match=message):
                pure.sample_shots(3, ops + suffix, 16, 1)
        with pytest.raises(ValueError, match=message):
            sim.tableau_distribution(circuit)
    assert engine.call_count == 0


def test_tableau_run_memory_stays_within_a_few_chunks():
    circuit = experiments.build_case_circuit(CaseId.C4, "aqecc", (0, 3, 11))
    sim.tableau_run(circuit, 1000, 1)  # warm caches and imports
    chunk_bytes = pure.SHOT_CHUNK * 8
    tracemalloc.start()
    try:
        counts = sim.tableau_run(circuit, 1_000_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.total_shots == 1_000_000
    # one Python int per shot, as a list, would take about 46 MB
    assert peak < 6 * chunk_bytes


def test_outcome_map_at_64_random_measurements():
    """The widest register: the map agrees with the per-shot loop shot by
    shot, and the sampler, past MAX_SPAN_VECTORS, refuses it."""
    n = 64
    ops = [(0, q, 0) for q in range(n)] + [(3, q, (q + 5) % n) for q in range(0, n, 3)]
    ops += [(2, 7, 0), (4, 1, 40), (1, 63, 0)]
    assert random_bits(n, ops) == 64
    assert_sampler_matches_reference(n, ops, 40, 11)


@pytest.mark.parametrize("case", list(CaseId))
@pytest.mark.parametrize("errors", ["none", "within", "beyond"])
def test_sample_shots_on_case_circuits(case, errors):
    count = {"none": 0, "within": case.capability, "beyond": case.capability + 2}[errors]
    positions = tuple(range(0, 2 * count, 2))
    circuit = experiments.build_case_circuit(case, "aqecc", positions)
    ops = sim._clifford_ops(circuit)
    assert_sampler_matches_reference(circuit.num_qubits, ops, 200, 42)


@pytest.mark.parametrize("seed", [0, 42, -1, (1 << 64) + 5])
def test_tableau_run_samples_exactly_one_shot(seed):
    """shots = 1, the smallest count ``tableau_run`` accepts: one outcome,
    the per-shot loop's shot 0, on a case circuit and on a random one."""
    for circuit in (experiments.build_case_circuit(CaseId.C3, "aqecc", (0, 5)),
                    sim.random_clifford_circuit(9, 50, 3)):
        n = circuit.num_qubits
        counts = sim.tableau_run(circuit, 1, seed)
        [outcome] = per_shot_reference(n, sim._clifford_ops(circuit), 1, seed)
        assert counts.total_shots == 1
        assert counts.counts == {format(outcome, f"0{n}b")[::-1]: 1}


class FixedBits:
    """Bit source replaying one integer, low bit first; counts bits used."""

    def __init__(self, word):
        self.word = word
        self.used = 0

    def next_bit(self):
        bit = (self.word >> self.used) & 1
        self.used += 1
        return bit


def multi_pass_reference(n, ops):
    """The outcome map's definition on the row-form reference: measure one
    copy with every random bit 0, then one copy per random measurement i
    with only bit i set."""
    base = RowTableau(n)
    base.apply(ops)
    zeros = FixedBits(0)
    o0 = base.copy().measure_all(zeros)
    cols = [base.copy().measure_all(FixedBits(1 << i)) ^ o0 for i in range(zeros.used)]
    return o0, tuple(cols)


@PROPERTY_UNSHRUNK
@given(clifford_ops())
def test_outcome_map_equals_multi_pass_definition(circuit):
    n, ops = circuit
    assert pure.outcome_map(n, ops) == multi_pass_reference(n, ops)


@st.composite
def case_circuits(draw):
    """(n, ops) of a case circuit with 0, P or P + 2 injected errors at
    drawn positions."""
    case = draw(st.sampled_from(list(CaseId)))
    count = draw(st.sampled_from([0, case.capability, case.capability + 2]))
    positions = draw(st.lists(st.integers(0, case.m_physical - 1), min_size=count,
                              max_size=count, unique=True))
    circuit = experiments.build_case_circuit(case, "aqecc", tuple(sorted(positions)))
    return circuit.num_qubits, sim._clifford_ops(circuit)


@PROPERTY_UNSHRUNK
@given(case_circuits())
def test_outcome_map_equals_multi_pass_definition_on_case_circuits(circuit):
    n, ops = circuit
    assert pure.outcome_map(n, ops) == multi_pass_reference(n, ops)


def test_outcome_map_reads_ops_from_any_iterable():
    """The ops are checked, then applied: an iterator gives the map of the
    list it walks, and a bad op behind it is still refused."""
    n = 5
    ops = [(pure.OP_H, 0, 0), (pure.OP_CNOT, 0, 3), (pure.OP_H, 2, 0), (pure.OP_CZ, 2, 4),
           (pure.OP_X, 1, 0)]
    expected = multi_pass_reference(n, ops)
    assert len(expected[1]) == 2
    fn = pure.outcome_map
    assert fn(n, iter(ops)) == fn(n, (op for op in ops)) == fn(n, tuple(ops)) == expected
    with pytest.raises(ValueError, match="qubit 5 out of range for 5 qubits"):
        fn(n, iter(ops + [(pure.OP_Z, 5, 0)]))


def test_outcome_map_is_r_projections():
    n = 64
    ops = [(0, q, 0) for q in range(n)] + [(3, q, (q + 5) % n) for q in range(0, n, 3)]
    expected = multi_pass_reference(n, ops)
    assert len(expected[1]) == 64
    cls = pure.TableauEngine
    with mock.patch.object(cls, "project", autospec=True, side_effect=cls.project) as project:
        assert pure.outcome_map(n, ops) == expected
    assert project.call_count == 64


@PROPERTY
@given(clifford_ops())
def test_outcome_map_columns_are_the_reduced_echelon_basis(circuit):
    """Column i flips the qubit of the i-th random measurement, its pivot
    (lowest set bit), and no qubit measured before it, so the pivots are
    distinct and ascend; each pivot is clear in every other column and in
    o0.  ``sample_shots`` folds a trailing X on a pivot by that."""
    n, ops = circuit
    o0, cols = pure.outcome_map(n, ops)
    assert type(cols) is tuple
    pivots = [col & -col for col in cols]
    assert pivots == sorted(set(pivots))
    r = len(cols)
    assert [[col & pivot != 0 for pivot in pivots] for col in cols] == \
        [[i == j for j in range(r)] for i in range(r)]
    assert not o0 & sum(pivots)
    assert 0 <= o0 < 1 << n and all(0 < col < 1 << n for col in cols)


@PROPERTY
@given(st.integers(-(1 << 65), 1 << 65), st.integers(0, 300))
def test_first_words_equal_scalar_streams(seed, shots):
    words = first_words(seed, shots)
    assert words.dtype.name == "uint64"
    assert words.tolist() == [ShotStream(seed, s).next_word() for s in range(shots)]


@PROPERTY
@given(st.integers(-(1 << 65), 1 << 65), st.integers(0, 300), st.integers(0, 300))
def test_first_words_range_equals_slice_of_full_array(seed, a, b):
    start, stop = sorted((a, b))
    assert first_words(seed, stop - start, start).tolist() == first_words(seed, stop)[start:].tolist()


@PROPERTY
@given(st.integers(-(1 << 65), 1 << 65), st.integers(0, 300), st.integers(0, 300))
def test_first_words_range_wraps_at_2_64(seed, before, after):
    """Shot indices are taken mod 2^64: a range across 2^64 continues with
    the full array's first words."""
    start = (1 << 64) - before
    words = first_words(seed, before + after, start).tolist()
    assert words[:before] == [ShotStream(seed, start + i).next_word() for i in range(before)]
    assert words[before:] == first_words(seed, after).tolist()
    assert first_words(seed, before, start - (1 << 64)).tolist() == words[:before]


def test_unknown_opcode_raises_after_applying_the_gates_before_it():
    eng, prefix = pure.TableauEngine(2), pure.TableauEngine(2)
    with pytest.raises(ValueError, match="unknown opcode 5"):
        eng.apply([(0, 0, 0), (1, 0, 0), (5, 0, 0), (2, 1, 0)])
    prefix.apply([(0, 0, 0), (1, 0, 0)])
    assert as_rows(eng) == as_rows(prefix)


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
    """(m, full-rank generator rows) with m <= max_bits, n <= max_logical.
    Columns repeat whenever m > 2^n, and zero columns are common."""
    m = draw(st.integers(1, max_bits))
    n = draw(st.integers(1, min(m, max_logical)))
    rows = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=n, max_size=n))
    assume(gf2.rank(rows, m) == n)
    return m, rows


@st.composite
def padded_codes(draw, max_bits=14, max_logical=4):
    """A linear code with a zero column and a copy of one of its columns
    appended at bits 1 and 0."""
    m, rows = draw(linear_codes(max_bits - 2, max_logical))
    p = draw(st.integers(0, m - 1))
    return m + 2, [r << 2 | (r >> p & 1) for r in rows]


@st.composite
def distinct_column_codes(draw, max_bits=14, max_logical=4):
    """(m, rows) of a code whose m <= 2^n columns are all distinct, so every
    column type has one position and compositions are patterns."""
    n = draw(st.integers(1, max_logical))
    columns = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                            max_size=min(1 << n, max_bits), unique=True))
    m = len(columns)
    rows = [sum((u >> j & 1) << p for p, u in enumerate(columns)) for j in range(n)]
    assume(gf2.rank(rows, m) == n)
    return m, rows


def any_codes(max_bits=14, max_logical=4):
    return st.one_of(linear_codes(max_bits, max_logical), padded_codes(max_bits, max_logical),
                     distinct_column_codes(max_bits, max_logical))


def column_types(m, rows):
    """Positions per distinct column (bit j of a column is row j's bit)."""
    return Counter(tuple(r >> p & 1 for r in rows) for p in range(m))


def table_cells(code):
    """prod(m_i + 1) compositions times k codewords: the cells of the
    code's sweep table, which ``SWEEP_CELLS`` bounds."""
    m, rows = code
    return prod(size + 1 for size in column_types(m, rows).values()) << len(rows)


@PROPERTY
@given(any_codes(), st.data())
def test_sweep_weight_equals_per_pattern_loop(code, data):
    m, rows = code
    cws = span(rows)
    weight = data.draw(st.integers(1, m))
    assert pure.sweep_weight(m, cws, weight) == per_pattern_reference(m, cws, weight)


def test_code_strategies_draw_repeated_zero_and_distinct_columns():
    kinds = set()

    @PROPERTY
    @given(any_codes())
    def record(code):
        types = column_types(*code)
        if any(count > 1 for count in types.values()):
            kinds.add("repeated")
        if (0,) * len(code[1]) in types:
            kinds.add("zero")
        if all(count == 1 for count in types.values()):
            kinds.add("distinct")

    record()
    assert kinds == {"repeated", "zero", "distinct"}


@PROPERTY
@given(any_codes(max_bits=20, max_logical=5).filter(lambda code: table_cells(code) <= pure.SWEEP_CELLS))
def test_sweep_totals_and_capability(code):
    m, rows = code
    cws = span(rows)
    d = aqecc.min_distance([format(r, f"0{m}b") for r in rows])
    p = (d - 1) // 2
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


def composition_count(sizes, weight):
    """Compositions of `weight` with 0 <= w_i <= sizes[i]: a coefficient of
    prod_i (1 + x + ... + x^sizes[i])."""
    poly = [1]
    for size in sizes:
        poly = [sum(poly[max(0, w - size):w + 1]) for w in range(len(poly) + size)]
    return poly[weight] if weight < len(poly) else 0


@st.composite
def wide_codes(draw, max_logical=4):
    """(m, rows) of a code of up to 64 positions over a few column types of
    up to 40 positions each, within ``SWEEP_CELLS``: multiplicities up to
    C(64, 32)."""
    n = draw(st.integers(1, max_logical))
    columns = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=1 << n, unique=True))
    sizes = []
    for size in draw(st.lists(st.integers(1, 40), min_size=len(columns), max_size=len(columns))):
        if sum(sizes) + size > 64 or prod(s + 1 for s in sizes + [size]) << n > pure.SWEEP_CELLS:
            break
        sizes.append(size)
    positions = [u for u, size in zip(columns, sizes) for _ in range(size)]
    m = len(positions)
    rows = [sum((u >> j & 1) << p for p, u in enumerate(positions)) for j in range(n)]
    assume(gf2.rank(rows, m) == n)
    return m, rows


@PROPERTY
@given(st.one_of(any_codes(), wide_codes()), st.data())
def test_sweep_table_holds_each_composition_once(code, data):
    m, rows = code
    sizes = pure._sweep_table(m, tuple(span(rows)))[0]
    assert sorted(sizes) == sorted(column_types(m, rows).values())
    weight = data.draw(st.integers(0, m))
    count = composition_count(sizes, weight)
    lanes, _, mults, _ = pure._weight_table(sizes, [], weight)
    # byte j of lanes[i] is w_i of composition j; a lane past `count` bytes
    # would not convert
    table = list(zip(*(lane.to_bytes(count, "little") for lane in lanes)))
    assert len(table) == len(mults) == count
    assert len(set(table)) == count
    assert all(sum(row) == weight for row in table)
    assert all(0 <= w <= size for row in table for w, size in zip(row, sizes))
    # each multiplicity is prod C(sizes[i], w_i) (up to C(64, 32))
    assert list(mults) == [prod(comb(size, w) for size, w in zip(sizes, row)) for row in table]
    assert sum(mults) == comb(m, weight)


@PROPERTY
@given(wide_codes(), st.data())
def test_sweep_weight_equals_numpy_reference_on_wide_codes(code, data):
    m, rows = code
    cws = span(rows)
    weight = data.draw(st.integers(1, m))
    assert pure.sweep_weight(m, cws, weight) == sweep_reference.sweep_weight(m, cws, weight)


def test_sweep_counts_more_corrected_codewords_per_pattern_than_a_byte_holds():
    # a shortened Hamming [12, 8, 3] code: 12 distinct columns and k = 256
    # make 2^12 * 256 = SWEEP_CELLS, and every weight-1 pattern is corrected
    # on all 256 codewords
    checks = [sum(1 << b for b in bits) for r in (2, 3) for bits in combinations(range(4), r)]
    m, rows = 12, [1 << (11 - j) | checks[j] for j in range(8)]
    cws = span(rows)
    assert table_cells((m, rows)) == pure.SWEEP_CELLS
    assert pure.sweep_weight(m, cws, 1) == (256 * 12, 256 * 12)
    for weight in range(1, m + 1):
        assert pure.sweep_weight(m, cws, weight) == sweep_reference.sweep_weight(m, cws, weight)


def every_column_code(extra=()):
    """(m, rows) of the 4-row code whose columns are all 16 4-bit values
    once, then the columns in `extra`."""
    columns = list(range(16)) + list(extra)
    return len(columns), [sum((u >> j & 1) << p for p, u in enumerate(columns)) for j in range(4)]


def test_sweep_memory_is_bounded_by_the_cell_cap():
    # 16 distinct columns and k = 16: 2^16 compositions times 16 codewords
    # is exactly SWEEP_CELLS.  Building the table (2 bytes per composition
    # and type, a few 8-byte columns per composition) and sweeping the
    # largest weight (12,870 compositions) stay within a few bytes per cell.
    m, rows = every_column_code()
    cws = span(rows)
    assert table_cells((m, rows)) == pure.SWEEP_CELLS
    pure._sweep_table.cache_clear()
    tracemalloc.start()
    try:
        cases, _ = pure.sweep_weight(m, cws, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pure._sweep_table.cache_clear()
    assert cases == 16 * comb(16, 8)
    assert peak < 8 * pure.SWEEP_CELLS


def test_sweep_refuses_a_code_past_the_cell_cap():
    # one more position, repeating column 1: 3 * 2^15 compositions times 16
    m, rows = every_column_code(extra=[1])
    cws = span(rows)
    assert table_cells((m, rows)) > pure.SWEEP_CELLS
    for weight in (1, 8, m):
        with pytest.raises(ValueError, match="at most"):
            pure.sweep_weight(m, cws, weight)
    assert pure.sweep_weight(m, cws, 0) == (0, 0)


def test_sweep_totals_beyond_int64_equal_python_int_reference():
    """m = 64, n = 3: columns 0..6 on one position each and column 7 on the
    other 57, so 58 * 2^7 = 7,424 compositions; weight 32 has 8 * C(64, 32)
    > 2^63 cases.  The reference enumerates the weight's compositions,
    decodes each (codeword, pattern) by its k^2 definition on numpy
    distances, and sums Python ints."""
    m, n, weight = 64, 3, 32
    columns = list(range(7)) + [7] * 57
    rows = [sum((u >> j & 1) << p for p, u in enumerate(columns)) for j in range(n)]
    cws = span(rows)
    sizes = np.array([1] * 7 + [57])
    assert table_cells((m, rows)) == 7424 * 8
    # covers[u, t]: codeword t covers type u, whose first position is bit u
    covers = np.array([[cws[t] >> u & 1 for t in range(8)] for u in range(8)])
    comps = np.indices(sizes + 1).reshape(8, -1).T
    comps = comps[comps.sum(axis=1) == weight]
    # wt(e ^ cw_t): covered positions count their unflipped bits
    dist = comps @ (1 - 2 * covers) + sizes @ covers
    won = sum(dist[:, [l ^ j for j in range(8)]].argmin(axis=1) == l for l in range(8))
    mults = [prod(comb(int(s), int(w)) for s, w in zip(sizes, comp)) for comp in comps]
    cases = 8 * sum(mults)
    corrected = sum(mult * int(w) for mult, w in zip(mults, won))
    assert cases == 8 * comb(64, 32) > 1 << 63
    assert pure.sweep_weight(m, cws, weight) == (cases, corrected)


@pytest.mark.parametrize("case", list(CaseId))
def test_sweep_weight_on_presets_equals_per_pattern_loop(case):
    code = aqecc.build_qc_code(case)
    m = case.m_physical
    cws = code.codewords()
    for w in (1, case.capability, case.capability + 1) if m > 14 else range(m + 1):
        assert pure.sweep_weight(m, cws, w) == per_pattern_reference(m, cws, w)
