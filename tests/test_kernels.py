"""Kernel tests: the affine shot sampler against the per-shot tableau loop,
the vectorised RNG against the scalar streams, and pure-vs-compiled parity
(both backends must be bit-identical; skipped when the extension is absent).
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgqec import aqecc, backend, experiments, sim
from qgqec.cases import CaseId
from qgqec.rng import ShotStream, first_words

pure = backend.get_backend("pure")
try:
    compiled = backend.get_backend("compiled")
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None, reason="compiled kernel not built")


def random_ops(rnd, n, count):
    ops = []
    for _ in range(count):
        code = rnd.randrange(5)
        if code >= 3 and n >= 2:
            a, b = rnd.sample(range(n), 2)
            ops.append((code, a, b))
        else:
            ops.append((min(code, 2), rnd.randrange(n), 0))
    return ops


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


@needs_compiled
def test_rng_stream_parity():
    rnd = random.Random(1)
    for _ in range(50):
        seed = rnd.randrange(1 << 63)
        shot = rnd.randrange(1 << 20)
        assert pure.rng_words(seed, shot, 4) == compiled.rng_words(seed, shot, 4)
    assert pure.mix64(0) == compiled.mix64(0)
    assert pure.mix64((1 << 64) - 1) == compiled.mix64((1 << 64) - 1)


@needs_compiled
def test_sample_shots_parity():
    rnd = random.Random(2)
    for _ in range(25):
        n = rnd.randint(1, 10)
        ops = random_ops(rnd, n, rnd.randint(0, 40))
        seed = rnd.randrange(1 << 62)
        shots = rnd.randint(1, 64)
        assert pure.sample_shots(n, ops, shots, seed) == compiled.sample_shots(n, ops, shots, seed)


@needs_compiled
def test_sample_shots_parity_wide_register():
    rnd = random.Random(3)
    ops = random_ops(rnd, 40, 60)
    assert pure.sample_shots(40, ops, 32, 99) == compiled.sample_shots(40, ops, 32, 99)


@needs_compiled
def test_engine_step_parity():
    rnd = random.Random(4)
    for _ in range(20):
        n = rnd.randint(1, 8)
        ops = random_ops(rnd, n, rnd.randint(0, 30))
        a = pure.TableauEngine(n)
        b = compiled.TableauEngine(n)
        a.apply(ops)
        b.apply(ops)
        for q in range(n):
            ra, rb = a.is_random(q), b.is_random(q)
            assert ra == rb
            if ra:
                bit = rnd.randrange(2)
                a.project(q, bit)
                b.project(q, bit)
            else:
                assert a.deterministic_outcome(q) == b.deterministic_outcome(q)


@needs_compiled
def test_sweep_weight_parity():
    for case in ("C1", "C2", "C3"):
        code = aqecc.build_qc_code(case)
        cws = code.codewords()
        m = code.spec.m_physical
        for w in range(1, 4):
            assert pure.sweep_weight(m, cws, w) == compiled.sweep_weight(m, cws, w)
    assert pure.sweep_weight(5, [0b10101], 0) == (0, 0)
    assert compiled.sweep_weight(5, [0b10101], 99) == (0, 0)


@needs_compiled
def test_engine_copy_is_independent():
    for mod in (pure, compiled):
        eng = mod.TableauEngine(3)
        eng.apply([(0, 0, 0), (3, 0, 1)])
        dup = eng.copy()
        assert dup.is_random(0)
        dup.project(0, 1)
        # original unchanged: still random on qubit 0
        assert eng.is_random(0)


def test_backend_env_override():
    env = dict(os.environ, QGQEC_BACKEND="pure")
    out = subprocess.run(
        [sys.executable, "-c", "from qgqec.backend import BACKEND_NAME; print(BACKEND_NAME)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure"
    env["QGQEC_BACKEND"] = "bogus"
    bad = subprocess.run(
        [sys.executable, "-c", "import qgqec.backend"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode != 0


def test_tableau_qubit_caps():
    for mod in [m for m in (pure, compiled) if m is not None]:
        with pytest.raises(ValueError):
            mod.TableauEngine(0)
        with pytest.raises(ValueError):
            mod.TableauEngine(65)
        mod.TableauEngine(64)  # boundary is allowed
