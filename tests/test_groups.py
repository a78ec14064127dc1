"""Group scaffolding tests; spectral norms cross-checked against numpy SVD."""

import numpy as np
import pytest

from qgqec import groups


def random_skew(rnd, dim):
    upper = rnd.uniform(-1.0, 1.0, size=(dim, dim))
    return np.triu(upper, 1) - np.triu(upper, 1).T


def test_is_orthogonal():
    assert groups.is_orthogonal(np.eye(4), 1e-12)
    assert groups.is_orthogonal(groups.hadamard_matrix(), 1e-12)
    assert not groups.is_orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-12)
    with pytest.raises(ValueError):
        groups.is_orthogonal(np.ones((2, 3)))


def test_is_special_unitary():
    assert groups.is_special_unitary(np.eye(3), 1e-12)
    assert not groups.is_special_unitary(groups.hadamard_matrix(), 1e-12)  # det -1
    assert groups.is_special_unitary(np.diag([1j, -1j]), 1e-12)
    with pytest.raises(ValueError):
        groups.is_special_unitary(np.ones((1, 2)))


def test_hadamard_matrix_actions():
    h = groups.hadamard_matrix()
    np.testing.assert_allclose(h @ np.array([1.0, 0.0]), np.array([1, 1]) / np.sqrt(2))
    np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-15)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    np.testing.assert_allclose(h @ x @ h, z, atol=1e-15)


def test_hadamard_layer():
    np.testing.assert_array_equal(groups.hadamard_layer(1), groups.hadamard_matrix())
    h2 = groups.hadamard_layer(2)
    np.testing.assert_allclose(np.abs(h2), 0.25 * np.ones((4, 4)) * 2)  # entries +-1/2
    np.testing.assert_allclose(h2 @ np.array([1.0, 0, 0, 0]), 0.5 * np.ones(4))
    for n in range(1, 7):
        layer = groups.hadamard_layer(n)
        assert groups.is_orthogonal(layer, 1e-10)
        np.testing.assert_allclose(layer, layer.T)
        assert np.allclose(np.abs(layer), 2 ** (-n / 2))
    with pytest.raises(ValueError):
        groups.hadamard_layer(13)
    with pytest.raises(ValueError):
        groups.hadamard_layer(0)


def test_build_quasi_rotation():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(groups.build_quasi_rotation(0.0, m), np.eye(2))
    r = groups.build_quasi_rotation(0.1, m)
    np.testing.assert_allclose(r, np.array([[1.0, 0.1], [-0.1, 1.0]]))
    with pytest.raises(ValueError):
        groups.build_quasi_rotation(0.1, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        groups.build_quasi_rotation(0.1, np.ones((2, 3)))


def test_orthogonality_defect_examples():
    assert groups.orthogonality_defect(np.eye(5)) == 0.0
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r = groups.build_quasi_rotation(0.1, m)
    assert abs(groups.orthogonality_defect(r) - 0.01) < 1e-12
    assert groups.orthogonality_defect(groups.hadamard_matrix()) < 1e-12


def test_orthogonality_defect_equals_svd():
    rnd = np.random.default_rng(42)
    for _ in range(50):
        dim = int(rnd.integers(2, 9))
        a = rnd.uniform(-2.0, 2.0, size=(dim, dim))
        expected = float(np.linalg.svd(a.T @ a - np.eye(dim), compute_uv=False)[0])
        assert abs(groups.orthogonality_defect(a) - expected) < 1e-12 * max(1.0, expected)


def test_orthogonality_defect_sees_a_defect_orthogonal_to_all_ones():
    # the all-ones vector spans the null space of this M, so R^T R - I =
    # eps^2 M^T M vanishes on it although its norm is eps^2 * 3 = 0.03
    m = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    r = groups.build_quasi_rotation(0.1, m)
    expected = float(np.linalg.norm(r.T @ r - np.eye(3), 2))
    assert abs(expected - 0.03) < 1e-12
    assert abs(groups.orthogonality_defect(r) - expected) < 1e-12


def test_quasi_rotation_defect_bound_and_determinant():
    rnd = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rnd.integers(2, 9))
        m = random_skew(rnd, dim)
        smax = float(np.linalg.svd(m, compute_uv=False)[0])
        for eps in (1e-1, 1e-2, 1e-3):
            r = groups.build_quasi_rotation(eps, m)
            assert groups.orthogonality_defect(r) <= eps**2 * smax**2 + 1e-9
            assert np.linalg.det(r) >= 1.0 - 1e-12


def test_cz_epsilon_forms():
    np.testing.assert_array_equal(groups.cz_epsilon(0.0, "formula"), np.eye(4))
    np.testing.assert_array_equal(groups.cz_epsilon(0.0, "displayed"), np.eye(4))
    disp = groups.cz_epsilon(0.2, "displayed")
    assert disp[2, 3] == disp[3, 2] == 0.2
    np.testing.assert_array_equal(np.diag(disp), np.ones(4))
    np.testing.assert_array_equal(
        groups.cz_epsilon(0.2, "formula"), np.diag([1.2, 0.8, 0.8, 1.2])
    )
    with pytest.raises(ValueError):
        groups.cz_epsilon(1.0)
    with pytest.raises(ValueError):
        groups.cz_epsilon(0.1, "bogus")


def test_cz_formula_symmetric_and_commutes_with_zz():
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    cz = groups.cz_epsilon(0.3, "formula")
    np.testing.assert_array_equal(cz, cz.T)
    np.testing.assert_array_equal(cz @ zz, zz @ cz)


def test_generate_cyclic_group_shift_order_five():
    g = groups.shift_permutation(5, 1)
    spec = groups.generate_cyclic_group(g, 5)
    assert spec.order == 5
    assert len(spec.elements) == 5
    assert spec.elements[0] == tuple(range(5))
    # a^5 = e: applying the shift 5 times is the identity on every string
    for v in range(2**5):
        s = format(v, "05b")
        out = s
        for _ in range(5):
            out = groups.apply_permutation(g, out)
        assert out == s


def test_generate_cyclic_group_rejects_wrong_order():
    with pytest.raises(ValueError):
        groups.generate_cyclic_group(groups.shift_permutation(6, 2), 6)  # true order 3
    with pytest.raises(ValueError):
        groups.generate_cyclic_group(groups.shift_permutation(4, 1), 8)  # g^4 = e early
    assert groups.generate_cyclic_group(groups.shift_permutation(6, 2), 3).order == 3


def test_generate_cyclic_group_identity_and_matrix():
    spec = groups.generate_cyclic_group((0,), 1)
    assert spec.order == 1
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # quarter turn, order 4
    spec = groups.generate_cyclic_group(rot, 4)
    assert len(spec.elements) == 4
    with pytest.raises(ValueError):
        groups.generate_cyclic_group(rot, 3)
    with pytest.raises(ValueError):
        groups.generate_cyclic_group((1, 1, 0), 2)  # not a permutation


def test_shift_composition_is_identity_exhaustive():
    for n in (3, 5, 8, 12):
        g = groups.shift_permutation(n, 1)
        limit = 2 ** min(n, 12)
        for v in range(limit):
            s = format(v, f"0{n}b")
            out = s
            for _ in range(n):
                out = groups.apply_permutation(g, out)
            assert out == s
