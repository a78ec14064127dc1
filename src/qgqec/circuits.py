"""Circuit and Counts containers plus their wire formats.

Text format, one gate per line with ``#`` comments::

    # qubits: 8
    H 0
    CNOT 0 5
    CZ 1 2
    X 3

The ``# qubits: N`` comment pins the register width (it cannot always be
inferred: trailing qubits may be untouched).  Counts serialize to JSON
``{"total_shots": n, "counts": {...}}`` and to CSV ``outcome,count`` with
quoted bitstrings.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

CLIFFORD_GATES = {"H": 1, "X": 1, "Z": 1, "CNOT": 2, "CZ": 2}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    matrix: object = None  # dense payload for name == "U" only

    def __str__(self) -> str:
        return " ".join([self.name, *map(str, self.qubits)])


class Circuit:
    """Ordered gate list over a fixed register; measure-all is implicit."""

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
        self.gates.append(Gate("H", self._check(q)))
        return self

    def x(self, q: int) -> "Circuit":
        self.gates.append(Gate("X", self._check(q)))
        return self

    def z(self, q: int) -> "Circuit":
        self.gates.append(Gate("Z", self._check(q)))
        return self

    def cnot(self, control: int, target: int) -> "Circuit":
        self.gates.append(Gate("CNOT", self._check(control, target)))
        return self

    def cz(self, a: int, b: int) -> "Circuit":
        self.gates.append(Gate("CZ", self._check(a, b)))
        return self

    def unitary(self, matrix, qubits) -> "Circuit":
        """Dense 1- or 2-qubit operator (statevector backend only)."""
        qubits = self._check(*qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2 ** len(qubits),) * 2 or len(qubits) not in (1, 2):
            raise ValueError("dense gates must be 2x2 on 1 qubit or 4x4 on 2")
        self.gates.append(Gate("U", qubits, matrix))
        return self

    def is_clifford(self) -> bool:
        return all(g.name in CLIFFORD_GATES for g in self.gates)

    def gate_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.gates:
            out[g.name] = out.get(g.name, 0) + 1
        return out

    def to_text(self) -> str:
        lines = [f"# qubits: {self.num_qubits}"]
        for g in self.gates:
            if g.name == "U":
                raise ValueError("dense gates have no text form")
            lines.append(str(g))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)})"


def parse_circuit(text: str) -> Circuit:
    """Parse the one-gate-per-line format; honors a '# qubits: N' comment."""
    declared = None
    parsed: list[tuple[str, tuple[int, ...]]] = []
    max_q = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("qubits:"):
                declared = int(body.split(":", 1)[1])
            continue
        if not line:
            continue
        line = line.split("#", 1)[0].strip()
        parts = line.split()
        name = parts[0].upper()
        if name not in CLIFFORD_GATES:
            raise ValueError(f"line {lineno}: unknown gate {parts[0]!r}")
        if len(parts) - 1 != CLIFFORD_GATES[name]:
            raise ValueError(f"line {lineno}: {name} takes {CLIFFORD_GATES[name]} qubit(s)")
        qubits = tuple(int(p) for p in parts[1:])
        max_q = max(max_q, *qubits)
        parsed.append((name, qubits))
    if declared is None and max_q < 0:
        raise ValueError("empty circuit with no '# qubits:' declaration")
    n = declared if declared is not None else max_q + 1
    circuit = Circuit(n)
    for name, qubits in parsed:
        getattr(circuit, name.lower())(*qubits)
    return circuit


@dataclass(frozen=True)
class Counts:
    """Histogram of measured bitstrings; values sum to total_shots."""

    counts: dict[str, int]
    total_shots: int = field(default=0)

    def __post_init__(self):
        for outcome, count in self.counts.items():
            if count < 0:
                raise ValueError(f"negative count {count} for outcome {outcome!r}")
        total = sum(self.counts.values())
        if self.total_shots == 0:
            object.__setattr__(self, "total_shots", total)
        elif total != self.total_shots:
            raise ValueError(f"counts sum {total} != total_shots {self.total_shots}")
        if self.total_shots < 1:
            raise ValueError("total_shots must be positive")
        widths = {len(k) for k in self.counts}
        if len(widths) > 1:
            raise ValueError("outcomes have mixed bit widths")

    def num_outcomes(self) -> int:
        return len(self.counts)

    def to_json(self) -> str:
        return json.dumps(
            {"total_shots": self.total_shots, "counts": self.counts}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "Counts":
        """Read ``to_json`` output; any other shape raises ValueError or
        KeyError.  Counts and total_shots must be JSON integers: a float, a
        string or a boolean raises ValueError rather than being coerced."""
        d = json.loads(text)
        if not isinstance(d, dict) or not isinstance(d.get("counts"), dict):
            raise ValueError("counts JSON needs a 'counts' object")
        total = d["total_shots"]
        for value in [*d["counts"].values(), total]:
            if type(value) is not int:  # bool is an int subclass
                raise ValueError(f"counts and total_shots must be integers, got {json.dumps(value)}")
        return cls(dict(d["counts"]), total)

    def to_csv(self) -> str:
        lines = ["outcome,count"]
        for outcome in sorted(self.counts):
            lines.append(f'"{outcome}",{self.counts[outcome]}')
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Counts":
        rows = parse_count_rows(text)
        merged: dict[str, int] = {}
        for outcome, count in rows:
            merged[outcome] = merged.get(outcome, 0) + count
        return cls(merged)


def parse_count_rows(text: str) -> list[tuple[str, int]]:
    """Read outcome,count CSV preserving duplicate rows verbatim; counts must
    be non-negative."""
    reader = csv.reader(io.StringIO(text))
    rows: list[tuple[str, int]] = []
    for rec in reader:
        if not rec or rec[0].strip() == "outcome":
            continue
        if len(rec) != 2:
            raise ValueError(f"malformed counts row: {rec!r}")
        count = int(rec[1])
        if count < 0:
            raise ValueError(f"negative count in row {rec!r}")
        rows.append((rec[0].strip(), count))
    if not rows:
        raise ValueError("no counts rows found")
    return rows
