"""Circuit and Counts containers plus the Counts wire formats.

Counts are read from JSON ``{"total_shots": n, "counts": {...}}`` and
written to CSV ``outcome,count`` with quoted bitstrings; both readers hold
outcomes to one rule (``check_outcomes``).  numpy is imported only by
``Circuit.unitary``, so that commands which build no dense gate do not load
it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import lru_cache

STATEVECTOR_QUBIT_CAP = 16  # widest circuit the dense statevector engine takes
PROB_PRUNE = 1e-15  # exact probabilities at or below this are dropped
# holds every distinct gate on up to 45 qubits: 3 n + 2 n (n - 1) = 4,095
GATE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    matrix: object = None  # dense payload for name == "U" only


@lru_cache(maxsize=GATE_CACHE_SIZE)
def _gate(name: str, qubits: tuple[int, ...]) -> Gate:
    """One shared frozen ``Gate`` per (name, qubits) of a Clifford gate;
    dense ``U`` gates carry a matrix and are never cached."""
    return Gate(name, qubits)


class Circuit:
    """Ordered gate list over a fixed register; measure-all is implicit.
    Each Clifford gate is checked, then taken from the shared ``_gate``
    cache."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = num_qubits
        self.gates: list[Gate] = []

    def _check(self, *qubits: int) -> tuple[int, ...]:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range for {self.num_qubits} qubits")
        if len(set(qubits)) != len(qubits):
            raise ValueError("gate qubits must be distinct")
        return qubits

    def h(self, q: int) -> "Circuit":
        self.gates.append(_gate("H", self._check(q)))
        return self

    def x(self, q: int) -> "Circuit":
        self.gates.append(_gate("X", self._check(q)))
        return self

    def z(self, q: int) -> "Circuit":
        self.gates.append(_gate("Z", self._check(q)))
        return self

    def cnot(self, control: int, target: int) -> "Circuit":
        self.gates.append(_gate("CNOT", self._check(control, target)))
        return self

    def cz(self, a: int, b: int) -> "Circuit":
        self.gates.append(_gate("CZ", self._check(a, b)))
        return self

    def unitary(self, matrix, qubits) -> "Circuit":
        """Dense 1- or 2-qubit operator (statevector backend only)."""
        import numpy as np

        qubits = self._check(*qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2 ** len(qubits),) * 2 or len(qubits) not in (1, 2):
            raise ValueError("dense gates must be 2x2 on 1 qubit or 4x4 on 2")
        self.gates.append(Gate("U", qubits, matrix))
        return self


@dataclass(frozen=True)
class Counts:
    """Histogram of measured bitstrings (``check_outcomes``); values sum to
    total_shots.  Counts and total_shots must be ints: a float, a string or
    a bool raises ValueError rather than being coerced."""

    counts: dict[str, int]
    total_shots: int = field(default=0)

    def __post_init__(self):
        if type(self.total_shots) is not int:  # bool is an int subclass
            raise ValueError(f"total_shots must be an integer, got {self.total_shots!r}")
        for outcome, count in self.counts.items():
            if type(count) is not int:
                raise ValueError(f"count of {outcome!r} must be a non-negative integer, got {count!r}")
            if count < 0:
                raise ValueError(f"negative count {count} for outcome {outcome!r}")
        total = sum(self.counts.values())
        if self.total_shots == 0:
            object.__setattr__(self, "total_shots", total)
        elif total != self.total_shots:
            raise ValueError(f"counts sum {total} != total_shots {self.total_shots}")
        if self.total_shots < 1:
            raise ValueError("total_shots must be positive")
        check_outcomes(self.counts)

    def num_outcomes(self) -> int:
        return len(self.counts)

    @classmethod
    def from_json(cls, text: str) -> "Counts":
        """Read ``{"total_shots": n, "counts": {...}}``, as a ``run`` report
        holds it; any other shape raises ValueError or KeyError.  Counts and
        total_shots must be JSON integers: a float, a string or a boolean
        raises ValueError rather than being coerced, and so do a repeated key
        in any object and JSON nested past the recursion limit."""
        try:
            d = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("counts JSON is nested too deeply") from None
        if not isinstance(d, dict) or not isinstance(d.get("counts"), dict):
            raise ValueError("counts JSON needs a 'counts' object")
        total = d["total_shots"]
        for value in [*d["counts"].values(), total]:
            if type(value) is not int:  # bool is an int subclass
                raise ValueError(f"counts and total_shots must be integers, got {json.dumps(value)}")
        counts = cls(dict(d["counts"]), total)
        if counts.total_shots != total:  # Counts reads 0 as "derive it"
            raise ValueError(f"counts sum {counts.total_shots} != total_shots {total}")
        return counts

    def to_csv(self) -> str:
        return format_count_rows(sorted(self.counts.items()))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key raises ValueError, where
    ``json`` alone would keep only its last value."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ValueError(f"repeated key {json.dumps(key)} in counts JSON")
        d[key] = value
    return d


def check_outcomes(outcomes) -> None:
    """The one rule for outcomes, in ``Counts`` and in CSV and JSON counts
    input alike: each a non-empty '0'/'1' string, all of one width.
    Anything else raises ValueError."""
    if "".join(outcomes).strip("01") or "" in outcomes:
        bad = next(o for o in outcomes if not o or o.strip("01"))
        raise ValueError(f"not a '0'/'1' bitstring: {bad!r}")
    if len({len(o) for o in outcomes}) > 1:
        raise ValueError("outcomes have mixed bit widths")


def format_count_rows(rows) -> str:
    """outcome,count CSV with quoted bitstrings, rows in the given order;
    ``parse_count_rows`` reads it back."""
    return "outcome,count\n" + "".join(f'"{outcome}",{count}\n' for outcome, count in rows)


def parse_int(text: str) -> int:
    """A plain decimal integer: an optional '-' and ASCII digits, with
    surrounding whitespace allowed.  ``int`` alone would also take '1_0',
    '+3' and non-ASCII digits; they raise ValueError here."""
    digits = text.strip()
    body = digits[1:] if digits.startswith("-") else digits
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(digits)


def parse_count_rows(text: str) -> list[tuple[str, int]]:
    """Read outcome,count CSV preserving duplicate rows verbatim; counts must
    be non-negative decimal integers (``parse_int``) and outcomes must pass
    ``check_outcomes``.  Malformed CSV, such as a field past the csv
    module's size limit, raises ValueError."""
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(str(exc)) from None
    rows: list[tuple[str, int]] = []
    for rec in records:
        if not rec or rec[0].strip() == "outcome":
            continue
        if len(rec) != 2:
            raise ValueError(f"malformed counts row: {rec!r}")
        count = parse_int(rec[1])
        if count < 0:
            raise ValueError(f"negative count in row {rec!r}")
        rows.append((rec[0].strip(), count))
    if not rows:
        raise ValueError("no counts rows found")
    check_outcomes([outcome for outcome, _ in rows])
    return rows
