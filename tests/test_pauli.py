"""Pauli algebra tests against an independent dense-matrix oracle."""

import itertools
import random

import numpy as np
import pytest

from qgqec import pauli
from qgqec.pauli import PHASES, PauliOperator, apply_to_basis, commutes, from_label, pauli_mul

# independent oracle: letter matrices and explicit tensor products
_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_MAT = {(0, 0): _I, (1, 0): _X, (1, 1): _Y, (0, 1): _Z}


def dense(p: PauliOperator) -> np.ndarray:
    out = np.array([[1]], dtype=complex)
    for q in range(p.num_qubits):
        out = np.kron(out, _MAT[(p.x_mask >> q & 1, p.z_mask >> q & 1)])
    return p.phase * out


def all_phased(num_qubits):
    n = num_qubits
    for xz in itertools.product(range(4), repeat=n):
        x = sum((v & 1) << q for q, v in enumerate(xz))
        z = sum((v >> 1) << q for q, v in enumerate(xz))
        for ph in PHASES:
            yield PauliOperator(n, x, z, ph)


def random_pauli(rnd, n):
    full = (1 << n) - 1
    return PauliOperator(n, rnd.randrange(full + 1), rnd.randrange(full + 1), rnd.choice(PHASES))


def test_involutions_and_named_products():
    x = from_label("+X")
    z = from_label("+Z")
    assert pauli_mul(x, x) == from_label("+I")
    assert pauli_mul(x, z) == from_label("-iY")
    a = pauli.x_operator(2, [0])
    b = pauli.z_operator(2, [1])
    prod = pauli_mul(a, b)
    assert prod.phase == 1
    assert (prod.x_mask, prod.z_mask) == (0b01, 0b10)
    assert str(prod) == "+XZ"


def test_mul_matches_dense_oracle_one_and_two_qubits():
    ops1 = list(all_phased(1))
    for a, b in itertools.product(ops1, repeat=2):
        assert np.array_equal(dense(pauli_mul(a, b)), dense(a) @ dense(b))
    rnd = random.Random(101)
    ops2 = list(all_phased(2))
    for a, b in rnd.sample(list(itertools.product(ops2, repeat=2)), 500):
        assert np.array_equal(dense(pauli_mul(a, b)), dense(a) @ dense(b))


def test_mul_mismatch_raises():
    with pytest.raises(ValueError):
        pauli_mul(PauliOperator(2), PauliOperator(3))
    with pytest.raises(ValueError):
        commutes(PauliOperator(2), PauliOperator(3))


def test_associativity_exhaustive_small_and_random_large():
    ops1 = list(all_phased(1))
    for a, b, c in itertools.product(ops1, repeat=3):
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))
    # two qubits: all phased operators, sampled triples checked vs the oracle
    ops2 = list(all_phased(2))
    rnd = random.Random(7)
    for _ in range(2000):
        a, b, c = (rnd.choice(ops2) for _ in range(3))
        left = pauli_mul(pauli_mul(a, b), c)
        right = pauli_mul(a, pauli_mul(b, c))
        assert left == right
        assert np.array_equal(dense(left), dense(a) @ dense(b) @ dense(c))
    for _ in range(1000):
        n = rnd.randint(1, 8)
        a, b, c = (random_pauli(rnd, n) for _ in range(3))
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))


def test_commutes_all_256_single_qubit_pairs():
    ops = list(all_phased(1))
    assert len(ops) == 16
    for a, b in itertools.product(ops, repeat=2):
        ma, mb = dense(a), dense(b)
        assert commutes(a, b) == bool(np.array_equal(ma @ mb, mb @ ma))


def test_commutes_examples():
    assert not commutes(from_label("+X"), from_label("+Z"))
    assert commutes(from_label("+XX"), from_label("+ZZ"))
    ident = PauliOperator(3)
    rnd = random.Random(3)
    for _ in range(20):
        assert commutes(ident, random_pauli(rnd, 3))


def test_squares_are_plus_or_minus_identity():
    rnd = random.Random(11)
    for _ in range(200):
        p = random_pauli(rnd, rnd.randint(1, 8))
        sq = pauli_mul(p, p)
        assert sq.x_mask == 0 and sq.z_mask == 0
        assert sq.phase in (1, -1)


def test_apply_to_basis_single_qubit_actions():
    assert apply_to_basis(from_label("+X"), "0") == (1, "1")
    assert apply_to_basis(from_label("+Z"), "1") == (-1, "1")
    assert apply_to_basis(from_label("+Z"), "0") == (1, "0")
    # Y carries its own imaginary bookkeeping
    assert apply_to_basis(from_label("+Y"), "0") == (1j, "1")
    assert apply_to_basis(from_label("+Y"), "1") == (-1j, "0")


def test_apply_to_basis_matches_dense_oracle():
    rnd = random.Random(23)
    for _ in range(200):
        n = rnd.randint(1, 6)
        p = random_pauli(rnd, n)
        bits = "".join(rnd.choice("01") for _ in range(n))
        phase, out = apply_to_basis(p, bits)
        vec = np.zeros(2**n, dtype=complex)
        vec[int(bits, 2)] = 1.0
        result = dense(p) @ vec
        idx = int(out, 2)
        assert result[idx] == phase
        assert np.count_nonzero(result) == 1


def test_apply_to_basis_length_mismatch():
    with pytest.raises(ValueError):
        apply_to_basis(PauliOperator(2), "010")


def test_label_round_trip_and_grammar():
    rnd = random.Random(5)
    for _ in range(100):
        p = random_pauli(rnd, rnd.randint(1, 6))
        assert from_label(str(p)) == p
    assert str(from_label("iXZ")) == "iXZ"
    assert from_label("XIZ") == from_label("+XIZ")
    with pytest.raises(ValueError):
        from_label("+XB")
    with pytest.raises(ValueError):
        from_label("-i")


def test_constructor_validation():
    with pytest.raises(ValueError):
        PauliOperator(0)
    with pytest.raises(ValueError):
        PauliOperator(1, x_mask=2)
    with pytest.raises(ValueError):
        PauliOperator(1, phase=2 + 0j)
    with pytest.raises(ValueError):
        pauli.x_operator(2, [5])
