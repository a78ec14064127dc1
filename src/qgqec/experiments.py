"""End-to-end case pipelines: encode, inject X errors, simulate, decode,
classify, and exhaustively certify correction capability."""

from __future__ import annotations

import json
from dataclasses import dataclass

from qgqec import aqecc, sim, stats
from qgqec._bits import bits_to_int
from qgqec.backend import kernels
from qgqec.cases import CaseId
from qgqec.circuits import Circuit, Counts

FAMILIES = ("qoccc", "aqecc")


@dataclass(frozen=True)
class CaseReport:
    case: CaseId
    family: str
    counts: Counts
    corrected_shots: int
    uncorrected_shots: int
    stats: stats.StatsSummary
    error_positions: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if self.corrected_shots + self.uncorrected_shots != self.counts.total_shots:
            raise ValueError("corrected + uncorrected must equal total_shots")

    def to_json(self) -> str:
        payload = {
            "case": self.case.name,
            "family": self.family,
            "seed": self.seed,
            "error_positions": list(self.error_positions),
            "total_shots": self.counts.total_shots,
            "corrected_shots": self.corrected_shots,
            "uncorrected_shots": self.uncorrected_shots,
            "counts": self.counts.counts,
            "stats": self.stats.to_dict(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CaseReport":
        d = json.loads(text)
        return cls(
            case=CaseId[d["case"]],
            family=d["family"],
            counts=Counts({str(k): int(v) for k, v in d["counts"].items()}, d["total_shots"]),
            corrected_shots=int(d["corrected_shots"]),
            uncorrected_shots=int(d["uncorrected_shots"]),
            stats=stats.StatsSummary(**d["stats"]),
            error_positions=tuple(d["error_positions"]),
            seed=int(d["seed"]),
        )


def _check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return family


def logical_positions(code: aqecc.QCCode) -> list[int]:
    """One physical position per logical qubit: the smallest support index of
    its generator row that no other row touches."""
    supports = [
        {i for i, c in enumerate(row) if c == "1"} for row in code.generator_rows
    ]
    out = []
    for j, support in enumerate(supports):
        others = set().union(*(s for i, s in enumerate(supports) if i != j)) if len(supports) > 1 else set()
        own = sorted(support - others)
        if not own:
            raise RuntimeError(f"generator row {j} has no private support position")
        out.append(own[0])
    return out


def build_case_circuit(case, family: str = "aqecc", error_positions=()) -> Circuit:
    """H on each logical qubit, CNOT fan-out along its generator row, then a
    deterministic X at each injected error position."""
    case = case if isinstance(case, CaseId) else CaseId.parse(case)
    _check_family(family)
    positions = tuple(error_positions)
    if len(set(positions)) != len(positions):
        raise ValueError("error positions must be distinct")
    for p in positions:
        if not 0 <= p < case.m_physical:
            raise ValueError(f"error position {p} out of range for M={case.m_physical}")

    code = aqecc.build_qc_code(case)
    pivots = logical_positions(code)
    circuit = Circuit(case.m_physical)
    for pivot in pivots:
        circuit.h(pivot)
    for row, pivot in zip(code.generator_rows, pivots):
        for target in sorted(i for i, c in enumerate(row) if c == "1" and i != pivot):
            circuit.cnot(pivot, target)
    for p in positions:
        circuit.x(p)
    return circuit


def classify_outcome(code: aqecc.QCCode, outcome: str, error_positions) -> bool:
    """A measured bitstring is corrected iff decoding recovers exactly the
    injected flips and the same logical bits as the error-free string."""
    m = code.spec.m_physical
    error_mask = 0
    for p in error_positions:
        error_mask |= 1 << (m - 1 - p)
    ideal = format(bits_to_int(outcome) ^ error_mask, f"0{m}b")
    ideal_logical, _, _ = aqecc.decode(code, ideal)
    logical, _, weight = aqecc.decode(code, outcome)
    return weight == len(tuple(error_positions)) and logical == ideal_logical


def run_case(case, family: str, shots: int, seed: int, error_positions=()) -> CaseReport:
    """Simulate on the tableau backend and classify every shot."""
    case = case if isinstance(case, CaseId) else CaseId.parse(case)
    _check_family(family)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    circuit = build_case_circuit(case, family, error_positions)
    counts = sim.tableau_run(circuit, shots, seed)
    code = aqecc.build_qc_code(case)

    corrected = 0
    for outcome, count in counts.counts.items():
        if classify_outcome(code, outcome, error_positions):
            corrected += count
    uncorrected = counts.total_shots - corrected

    summary = stats.StatsSummary(
        mean=stats.mean_counts(counts),
        variance=stats.variance_counts(counts),
        error_rate_percent=100.0 * uncorrected / counts.total_shots,
        num_outcomes=counts.num_outcomes(),
        total_counts=counts.total_shots,
    )
    return CaseReport(
        case=case,
        family=family,
        counts=counts,
        corrected_shots=corrected,
        uncorrected_shots=uncorrected,
        stats=summary,
        error_positions=tuple(error_positions),
        seed=seed,
    )


def decoded_histogram(case, counts: Counts) -> dict[str, int]:
    """Histogram of decoded logical bitstrings over measured outcomes."""
    case = case if isinstance(case, CaseId) else CaseId.parse(case)
    code = aqecc.build_qc_code(case)
    out: dict[str, int] = {}
    for outcome, count in counts.counts.items():
        logical, _, _ = aqecc.decode(code, outcome)
        out[logical] = out.get(logical, 0) + count
    return out


@dataclass(frozen=True)
class SweepResult:
    case: CaseId
    max_weight: int
    per_weight: tuple[tuple[int, int, int], ...]  # (weight, cases, corrected)
    patterns_tested: int
    patterns_corrected: int

    def all_corrected_up_to(self, weight: int) -> bool:
        return all(c == t for w, t, c in self.per_weight if w <= weight)

    def to_json(self) -> str:
        payload = {
            "case": self.case.name,
            "max_weight": self.max_weight,
            "capability": self.case.capability,
            "per_weight": [
                {"weight": w, "cases": t, "corrected": c} for w, t, c in self.per_weight
            ],
            "patterns_tested": self.patterns_tested,
            "patterns_corrected": self.patterns_corrected,
            "all_corrected_within_capability": self.all_corrected_up_to(
                min(self.max_weight, self.case.capability)
            ),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        d = json.loads(text)
        return cls(
            case=CaseId[d["case"]],
            max_weight=int(d["max_weight"]),
            per_weight=tuple(
                (int(e["weight"]), int(e["cases"]), int(e["corrected"]))
                for e in d["per_weight"]
            ),
            patterns_tested=int(d["patterns_tested"]),
            patterns_corrected=int(d["patterns_corrected"]),
        )


def exhaustive_correction_sweep(case, max_weight: int, threads: int | None = None) -> SweepResult:
    """Classically decode codeword ^ pattern for every codeword and every
    error pattern of weight 1..max_weight, one ``kernels.sweep_weight`` call
    per weight on the calling thread.  `threads` is accepted for
    compatibility and changes nothing: each weight is a millisecond-scale
    numpy call, which a thread pool only slowed down."""
    case = case if isinstance(case, CaseId) else CaseId.parse(case)
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    codewords = aqecc.build_qc_code(case).codewords()
    m = case.m_physical
    per_weight = tuple(
        (w, *kernels.sweep_weight(m, codewords, w)) for w in range(1, max_weight + 1)
    )
    return SweepResult(
        case=case,
        max_weight=max_weight,
        per_weight=per_weight,
        patterns_tested=sum(t for _, t, _ in per_weight),
        patterns_corrected=sum(c for _, _, c in per_weight),
    )


def barchart_csv(counts: Counts) -> str:
    """outcome,count CSV sorted by descending count (ties by outcome)."""
    rows = sorted(counts.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    lines = ["outcome,count"]
    lines += [f'"{outcome}",{count}' for outcome, count in rows]
    return "\n".join(lines) + "\n"
