"""QOCCC pipeline tests: Walsh sets, adjustment variants, state expansion."""

import itertools

import numpy as np
import pytest

from qgqec import qoccc


def test_build_1d_ccc_basic():
    one = qoccc.build_1d_ccc(1)
    assert len(one.sequences) == 1
    assert list(one.sequences[0]) == [1]

    two = qoccc.build_1d_ccc(2)
    assert len(two.sequences) == 2
    assert all(len(s) == 4 for s in two.sequences)
    assert int(two.sequences[0] @ two.sequences[1]) == 0

    with pytest.raises(ValueError):
        qoccc.build_1d_ccc(3)
    with pytest.raises(ValueError):
        qoccc.build_1d_ccc(0)


def test_build_1d_ccc_norms_and_orthogonality():
    for n in (2, 4, 8):
        seqs = qoccc.build_1d_ccc(n).sequences
        assert len(seqs) == n
        for i, j in itertools.combinations(range(n), 2):
            assert int(seqs[i] @ seqs[j]) == 0
        for s in seqs:
            assert int(s @ s) == n * n
            assert set(np.unique(s)) <= {-1, 1}


def test_reshape_2d():
    arr = qoccc.reshape_2d([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(arr.original, [[1.0, 2.0], [3.0, 4.0]])
    single = qoccc.reshape_2d([5.0])
    assert single.n == 1
    with pytest.raises(ValueError):
        qoccc.reshape_2d([1.0] * 5)


def test_adjust_literal_examples():
    ortho = qoccc.QoArray(2, np.eye(2))
    np.testing.assert_array_equal(qoccc.adjust_literal(ortho).adjusted, np.eye(2))

    ones = qoccc.QoArray(2, np.ones((2, 2)))
    adjusted = qoccc.adjust_literal(ones).adjusted
    assert adjusted[0, 1] == 0.0
    assert adjusted[1, 0] == 0.0
    np.testing.assert_array_equal(np.diag(adjusted), [1.0, 1.0])

    with_zero_row = qoccc.QoArray(2, np.array([[0.0, 0.0], [1.0, 2.0]]))
    out = qoccc.adjust_literal(with_zero_row).adjusted
    np.testing.assert_array_equal(out[0], [0.0, 0.0])


def test_adjust_literal_idempotent_on_orthogonal_rows():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        arr = qoccc.QoArray(4, q)
        once = qoccc.adjust_literal(arr)
        np.testing.assert_allclose(once.adjusted, q, atol=1e-12)
        twice = qoccc.adjust_literal(qoccc.QoArray(4, once.adjusted))
        np.testing.assert_allclose(twice.adjusted, once.adjusted, atol=1e-12)


def test_adjust_literal_rejects_double_adjustment():
    arr = qoccc.adjust_literal(qoccc.QoArray(2, np.ones((2, 2))))
    with pytest.raises(ValueError):
        qoccc.adjust_literal(arr)


def test_adjust_gram_schmidt_examples():
    ortho = qoccc.QoArray(2, np.eye(2))
    np.testing.assert_array_equal(qoccc.adjust_gram_schmidt(ortho).adjusted, np.eye(2))

    ones = qoccc.adjust_gram_schmidt(qoccc.QoArray(2, np.ones((2, 2))))
    np.testing.assert_allclose(ones.adjusted[1], [0.0, 0.0], atol=1e-15)

    tri = qoccc.adjust_gram_schmidt(qoccc.QoArray(2, np.array([[1.0, 0.0], [1.0, 1.0]])))
    np.testing.assert_allclose(tri.adjusted, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_adjust_gram_schmidt_orthogonalizes_random_arrays():
    rng = np.random.default_rng(11)
    for n in (4, 8):
        for _ in range(100):
            arr = qoccc.QoArray(n, rng.uniform(-1.0, 1.0, size=(n, n)))
            out = qoccc.adjust_gram_schmidt(arr).adjusted
            for i, j in itertools.combinations(range(n), 2):
                assert abs(float(out[i] @ out[j])) < 1e-10


def test_expand_state_examples():
    basis = qoccc.expand_state(qoccc.QoArray(2, np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert basis.num_qubits == 2
    probs = qoccc.probability_amplitudes(basis)
    assert probs == {"00": 1.0}

    uniform = qoccc.expand_state(qoccc.QoArray(2, np.ones((2, 2))))
    probs = qoccc.probability_amplitudes(uniform)
    assert set(probs) == {"00", "01", "10", "11"}
    assert all(abs(p - 0.25) < 1e-12 for p in probs.values())

    signed = qoccc.expand_state(qoccc.QoArray(2, np.array([[1.0, -1.0], [1.0, 1.0]])))
    np.testing.assert_array_equal(signed.amplitudes, [0.5, -0.5, 0.5, 0.5])

    with pytest.raises(ValueError):
        qoccc.expand_state(qoccc.QoArray(2, np.zeros((2, 2))))
    with pytest.raises(ValueError):
        qoccc.expand_state(qoccc.QoArray(3, np.eye(3)))


def test_expand_state_uses_adjusted_entries():
    arr = qoccc.adjust_gram_schmidt(qoccc.QoArray(2, np.array([[1.0, 0.0], [1.0, 1.0]])))
    state = qoccc.expand_state(arr, use_adjusted=True)
    probs = qoccc.probability_amplitudes(state)
    assert abs(probs["00"] - 0.5) < 1e-12
    assert abs(probs["11"] - 0.5) < 1e-12
    with pytest.raises(ValueError):
        qoccc.expand_state(qoccc.QoArray(2, np.eye(2)), use_adjusted=True)


def test_probability_sums_to_one():
    rng = np.random.default_rng(3)
    for n in (2, 4):
        for _ in range(25):
            arr = qoccc.QoArray(n, rng.normal(size=(n, n)))
            probs = qoccc.probability_amplitudes(qoccc.expand_state(arr))
            assert abs(sum(probs.values()) - 1.0) < 1e-9


def test_add_redundancy():
    state = qoccc.AmplitudeState(1, np.array([0.6, 0.8], dtype=complex))
    same = qoccc.add_redundancy(state, 0, 0, 0)
    assert same is state

    widened = qoccc.add_redundancy(state, 1, 0, 0)
    np.testing.assert_allclose(widened.amplitudes, [0.6, 0.0, 0.8, 0.0])

    uniform = qoccc.expand_state(qoccc.QoArray(2, np.ones((2, 2))))
    grown = qoccc.add_redundancy(uniform, 1, 1, 1)
    assert grown.num_qubits == 5
    probs = qoccc.probability_amplitudes(grown)
    assert len(probs) == 4
    assert all(k.endswith("000") for k in probs)
    assert all(abs(p - 0.25) < 1e-12 for p in probs.values())

    with pytest.raises(ValueError):
        qoccc.add_redundancy(state, -1, 0, 0)
    with pytest.raises(ValueError):
        qoccc.add_redundancy(state, 16, 0, 0)


def test_add_redundancy_preserves_marginals():
    rng = np.random.default_rng(9)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = qoccc.AmplitudeState(2, amps)
    before = qoccc.probability_amplitudes(state)
    after = qoccc.probability_amplitudes(qoccc.add_redundancy(state, 2, 1, 0))
    marginal: dict[str, float] = {}
    for key, p in after.items():
        marginal[key[:2]] = marginal.get(key[:2], 0.0) + p
    assert set(marginal) == set(before)
    for key, p in before.items():
        assert abs(marginal[key] - p) < 1e-12

