"""Quasi-cyclic code construction: presets, shift generators, brute-force
minimum distance, exhaustive minimum-distance decoding, and check operators.

Bit-vectors are '0'/'1' strings (qubit 0 leftmost) at the API surface and
integers internally, leftmost character at the most significant bit so that
lexicographic order on strings equals integer order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from qgqec import gf2
from qgqec._bits import bits_to_int, int_to_bits, popcount, rotl
from qgqec.cases import CaseId

if TYPE_CHECKING:
    from qgqec import pauli


@dataclass(frozen=True)
class QCCode:
    spec: CaseId
    generator_rows: tuple[str, ...]

    def __post_init__(self):
        m, n = self.spec.m_physical, self.spec.n_logical
        rows = [bits_to_int(r) for r in self.generator_rows]
        if len(rows) != n or any(len(r) != m for r in self.generator_rows):
            raise ValueError("generator rows must be N bit-vectors of length M")
        if gf2.rank(rows, m) != n:
            raise ValueError("generator rows are linearly dependent")
        if _least_weight(self._codewords) != self.spec.distance:
            raise ValueError("brute-force distance does not match spec")

    @property
    def base(self) -> str:
        """The row whose stride shifts give the others: row j is the base
        rotated left by j * stride."""
        return self.generator_rows[0]

    @property
    def stride(self) -> int:
        return self.spec.m_physical // self.spec.n_logical

    @cached_property
    def checks(self) -> tuple[str, ...]:
        """The canonical GF(2) null-space basis of the rows, as bitstrings:
        each check is orthogonal to every generator row."""
        m = self.spec.m_physical
        rows = [bits_to_int(r) for r in self.generator_rows]
        return tuple(int_to_bits(h, m) for h in gf2.null_space(rows, m))

    def codewords(self) -> tuple[int, ...]:
        """All 2^N codewords as integers, indexed by logical bits.  Computed
        once per code; every caller shares the one immutable tuple."""
        return self._codewords

    @cached_property
    def _codewords(self) -> tuple[int, ...]:
        # N <= 4 (CaseId); bit n-1-j of the index selects row j, so the last row is vector 0
        rows = [bits_to_int(r) for r in reversed(self.generator_rows)]
        return tuple(gf2.span(rows))

    @cached_property
    def _codeword_index(self) -> dict[int, int]:
        """The logical index of each codeword, built once per code."""
        return {cw: logical for logical, cw in enumerate(self._codewords)}

    def to_json(self) -> str:
        s = self.spec
        payload = {
            "m": s.m_physical,
            "n": s.n_logical,
            "d": s.distance,
            "p": s.capability,
            "stride": self.stride,
            "base": self.base,
            "rows": list(self.generator_rows),
            "checks": list(self.checks),
        }
        return json.dumps(payload, sort_keys=True)


def min_distance(rows: list[str]) -> int:
    """Minimum Hamming weight over all nonzero GF(2) row combinations:
    entries 1..2^N - 1 of ``gf2.span``, so 0 when the rows are dependent
    (some nonzero combination cancels).  Rows of unequal length, and more
    rows than ``gf2.span`` takes (16), raise ValueError.
    """
    if not rows:
        raise ValueError("need at least one row")
    if len({len(r) for r in rows}) > 1:
        raise ValueError("rows must all have the same length")
    ints = [bits_to_int(r) for r in rows]
    if all(v == 0 for v in ints):
        raise ValueError("all rows are zero")
    return _least_weight(gf2.span(ints))


def _least_weight(span) -> int:
    """Least weight of a span's entries past entry 0, the empty combination."""
    return min(map(popcount, span[1:]))


def build_qc_code(case) -> QCCode:
    """Construct the preset quasi-cyclic code for one of C1..C4.

    k = 1 presets use the weight-d prefix base directly; k > 1 presets take
    the lexicographically first base whose stride-shifted rows are full rank
    with brute-force distance exactly d.  Built once per case: the result
    is frozen, so every caller shares it.
    """
    return _build_qc_code(CaseId.parse(case))


@lru_cache(maxsize=None)
def _build_qc_code(case: CaseId) -> QCCode:
    m, n, d = case.m_physical, case.n_logical, case.distance
    stride = m // n
    if n == 1:
        row_ints = [((1 << d) - 1) << (m - d)]
    else:
        row_ints = _search_base(m, n, d, stride)
    return QCCode(case, tuple(int_to_bits(v, m) for v in row_ints))


def _search_base(m: int, n: int, d: int, stride: int) -> list[int]:
    for v in range(1, 1 << m):
        rows = [rotl(v, j * stride, m) for j in range(n)]
        # least weight d >= 3 > 0 already makes the rows independent
        if _least_weight(gf2.span(rows)) == d:
            return rows
    raise RuntimeError(
        f"quasi-cyclic base search exhausted for [{m},{n},{d}] stride {stride}; "
        "this indicates a broken preset, not a user error"
    )


def decode(code: QCCode, received: str) -> tuple[str, str, int]:
    """Exhaustive minimum-distance decoding.

    Returns (logical_bits, corrected_codeword, error_weight); distance ties
    go to the lexicographically smallest logical bits.
    """
    m, n = code.spec.m_physical, code.spec.n_logical
    logical, dist = _nearest(code, _received_word(code, received))
    return int_to_bits(logical, n), int_to_bits(code.codewords()[logical], m), dist


def _received_word(code: QCCode, received: str) -> int:
    """An M-character received bitstring as an integer."""
    m = code.spec.m_physical
    if len(received) != m:
        raise ValueError(f"expected {m} bits, got {len(received)}")
    return bits_to_int(received)


def _nearest(code: QCCode, word: int) -> tuple[int, int]:
    """(logical index, distance) of the codeword nearest to an M-bit
    integer word, ties to the smallest index: the integer core that
    `decode` and outcome classification share."""
    dists = [popcount(word ^ cw) for cw in code.codewords()]
    best = min(dists)
    return dists.index(best), best


def stabilizer_check_operators(code: QCCode) -> list[pauli.PauliOperator]:
    """Z-type Paulis on each check's support.

    Each commutes with every X-type logical (orthogonal supports mod 2) and
    anticommutes with any X error overlapping it an odd number of times.
    ``pauli`` is imported here, the one place it is used, so that importing
    the CLI does not load it.
    """
    from qgqec import pauli

    m = code.spec.m_physical
    ops = []
    for h in code.checks:
        positions = [i for i, c in enumerate(h) if c == "1"]
        ops.append(pauli.z_operator(m, positions))
    return ops
