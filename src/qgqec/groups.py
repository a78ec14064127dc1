"""Group-theoretic scaffolding: orthogonality/unitarity predicates, Hadamard
layers, quasi-orthogonal perturbations, and verified cyclic generators.

Matrices are plain numpy arrays.  ``orthogonality_defect`` is numpy's exact
spectral norm (the largest singular value, from an SVD).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DENSE_QUBIT_CAP = 12
SIGN = np.array([[1, 1], [1, -1]])  # the 2x2 Sylvester sign matrix, read-only
SIGN.flags.writeable = False
_SKEW_TOL = 1e-12


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_orthogonal(a, tol: float = 1e-12) -> bool:
    """True iff max-entry |A^T A - I| <= tol."""
    a = _require_square(a)
    defect = a.T @ a - np.eye(a.shape[0])
    return float(np.max(np.abs(defect))) <= tol


def is_special_unitary(u, tol: float = 1e-12) -> bool:
    """True iff U is unitary within tol and |det(U) - 1| <= tol."""
    u = _require_square(u)
    defect = u.conj().T @ u - np.eye(u.shape[0])
    if float(np.max(np.abs(defect))) > tol:
        return False
    return abs(np.linalg.det(u) - 1.0) <= tol


def kron_power(base: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power base (x) ... (x) base as a new array; [[1]]
    for n = 0."""
    out = base.copy() if n else np.ones((1, 1), dtype=base.dtype)
    for _ in range(n - 1):
        out = np.kron(out, base)
    return out


def hadamard_matrix() -> np.ndarray:
    return SIGN / np.sqrt(2.0)


def hadamard_layer(n: int) -> np.ndarray:
    """n-fold tensor power of the Hadamard gate (dense, n <= 12)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"n={n} exceeds the dense cap of {DENSE_QUBIT_CAP}")
    return kron_power(hadamard_matrix(), n)


def build_quasi_rotation(epsilon: float, m) -> np.ndarray:
    """R = I + epsilon.M for a skew-symmetric M."""
    m = _require_square(m)
    if float(np.max(np.abs(m.T + m))) > _SKEW_TOL:
        raise ValueError("M must be skew-symmetric (M^T = -M)")
    return np.eye(m.shape[0]) + epsilon * m


def orthogonality_defect(r) -> float:
    """Spectral norm of R^T R - I (how far R is from orthogonal)."""
    r = _require_square(r)
    return float(np.linalg.norm(r.T @ r - np.eye(r.shape[0]), 2))


def cz_epsilon(epsilon: float, form: str = "formula") -> np.ndarray:
    """Epsilon-perturbed CZ.

    form='formula' expands I + epsilon.Z(x)Z entrywise; form='displayed'
    returns the off-diagonal 4x4 variant printed alongside it.  The two
    presentations genuinely differ; both are kept on purpose.
    """
    if abs(epsilon) >= 1:
        raise ValueError("|epsilon| must be < 1")
    if form == "formula":
        e = epsilon
        return np.diag([1 + e, 1 - e, 1 - e, 1 + e]).astype(float)
    if form == "displayed":
        out = np.eye(4)
        out[2, 3] = out[3, 2] = epsilon
        return out
    raise ValueError(f"unknown form {form!r}")


@dataclass
class CyclicGroupSpec:
    """A generator of verified finite order n, with its full element list."""

    order: int
    generator: object
    elements: list = field(default_factory=list)


def shift_permutation(n: int, i: int = 1) -> tuple:
    """Permutation sending position p to read from position (p + i) mod n."""
    return tuple((p + i) % n for p in range(n))


def apply_permutation(perm, seq):
    if isinstance(seq, str):
        return "".join(seq[p] for p in perm)
    return type(seq)(seq[p] for p in perm)


def generate_cyclic_group(g, n: int) -> CyclicGroupSpec:
    """Verify g has order exactly n and return {g^0, ..., g^(n-1)}.

    g is a permutation (sequence of ints) or a square matrix.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if isinstance(g, np.ndarray) or (
        hasattr(g, "__len__") and g and isinstance(g[0], (list, tuple, np.ndarray))
    ):
        gen = _require_square(np.asarray(g))
        ident = np.eye(gen.shape[0])

        def step(cur):
            return cur @ gen

        def is_ident(cur):
            return np.allclose(cur, ident, atol=1e-12)
    else:
        gen = tuple(g)
        if sorted(gen) != list(range(len(gen))):
            raise ValueError("not a permutation")
        ident = tuple(range(len(gen)))

        def step(cur):
            return tuple(cur[p] for p in gen)

        def is_ident(cur):
            return cur == ident

    elements = [ident]
    for k in range(1, n):
        elements.append(step(elements[-1]))
        if is_ident(elements[-1]):
            raise ValueError(f"generator order {k} is less than {n}")
    if not is_ident(step(elements[-1])):
        raise ValueError(f"generator order does not equal {n}")
    return CyclicGroupSpec(n, gen, elements)
