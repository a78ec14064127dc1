"""End-to-end case pipelines: encode, inject X errors, simulate, decode,
classify, and exhaustively certify correction capability."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from qgqec import aqecc, stats
from qgqec._bits import popcount
from qgqec.cases import FAMILIES, CaseId
from qgqec.circuits import Circuit, Counts, Gate, format_count_rows


@dataclass(frozen=True)
class CaseReport:
    case: CaseId
    family: str
    counts: Counts
    corrected_shots: int
    stats: stats.StatsSummary
    error_positions: tuple[int, ...]
    seed: int

    @property
    def uncorrected_shots(self) -> int:
        return self.counts.total_shots - self.corrected_shots

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


def logical_positions(code: aqecc.QCCode) -> list[int]:
    """One physical position per logical qubit: the smallest support index of
    its generator row that no other row touches."""
    supports = [
        {i for i, c in enumerate(row) if c == "1"} for row in code.generator_rows
    ]
    out = []
    for j, support in enumerate(supports):
        others = set().union(*(s for i, s in enumerate(supports) if i != j))
        own = sorted(support - others)
        if not own:
            raise RuntimeError(f"generator row {j} has no private support position")
        out.append(own[0])
    return out


def check_error_positions(error_positions, m_physical: int) -> tuple[int, ...]:
    """The injected positions as a tuple; they must be distinct and in 0..M-1."""
    positions = tuple(error_positions)
    if len(set(positions)) != len(positions):
        raise ValueError("error positions must be distinct")
    for p in positions:
        if not 0 <= p < m_physical:
            raise ValueError(f"error position {p} out of range for M={m_physical}")
    return positions


def build_case_circuit(case, family: str = "aqecc", error_positions=()) -> Circuit:
    """H on each logical qubit, CNOT fan-out along its generator row, then a
    deterministic X at each injected error position.  The family and the
    positions are checked before anything is built; the encoder's gates
    come from one cached tuple of frozen ``Gate``s per case (``_encoder``),
    on a fresh gate list, and the error X's from ``Circuit.x``'s shared
    gate cache."""
    case = CaseId.parse(case)
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    positions = check_error_positions(error_positions, case.m_physical)

    circuit = Circuit(case.m_physical)
    circuit.gates.extend(_encoder(case))
    for p in positions:
        circuit.x(p)
    return circuit


@lru_cache(maxsize=None)
def _encoder(case: CaseId) -> tuple[Gate, ...]:
    """A case's encoder gates, built once per code like the code itself: H
    on each logical pivot, then each pivot's CNOT fan-out to the rest of its
    generator row's support, in ascending order.  Gates are frozen, so every
    circuit shares them."""
    code = aqecc.build_qc_code(case)
    pivots = logical_positions(code)
    gates = [Gate("H", (pivot,)) for pivot in pivots]
    gates += [Gate("CNOT", (pivot, target)) for row, pivot in zip(code.generator_rows, pivots)
              for target in range(len(row)) if row[target] == "1" and target != pivot]
    return tuple(gates)


def classify_outcome(code: aqecc.QCCode, outcome: str, error_positions) -> bool:
    """A measured bitstring is corrected iff it decodes at distance
    len(positions) to the logical bits of the bitstring with the injected
    flips undone; the flips that decoding finds need not be the injected ones."""
    return not uncorrected_outcomes(code, (outcome,), error_positions)


def uncorrected_outcomes(code: aqecc.QCCode, outcomes, error_positions) -> set[str]:
    """The outcomes that `classify_outcome` rejects, on integers: those that
    do not decode at distance len(positions) to the logical index of the
    outcome with the injected flips undone.  The positions are checked and
    the flip mask is built once; outcomes raise ValueError in input order.

    A sampled outcome lies in the coset cw_l ^ mask, and linearity decides
    the whole coset from D[t] = wt(mask ^ cw_t), computed once: the outcome
    lies at D[l ^ j] from cw_j and D[0] = w, the weight.  So it decodes at
    distance w to l, ties to the smallest index as ``aqecc.decode``, unless
    some t != 0 has D[t] < w or it has D[t] == w and t's top bit is set in
    l (then l ^ t < l): the rule ``sweep_weight`` counts with.  Any other
    outcome is decoded twice with ``aqecc._nearest``.
    """
    m = code.spec.m_physical
    positions = check_error_positions(error_positions, m)
    mask, weight = _error_mask(positions, m), len(positions)
    codewords, index = code.codewords(), code._codeword_index
    below, ties = False, 0
    for t in range(1, len(codewords)):
        d = popcount(mask ^ codewords[t])
        below |= d < weight
        if d == weight:
            ties |= 1 << (t.bit_length() - 1)
    failed = set()
    for outcome in outcomes:
        word = aqecc._received_word(code, outcome)
        undone = word ^ mask
        logical = index.get(undone)
        if logical is None:
            logical, dist = aqecc._nearest(code, word)
            if dist != weight or logical != aqecc._nearest(code, undone)[0]:
                failed.add(outcome)
        elif below or logical & ties:
            failed.add(outcome)
    return failed


def _error_mask(positions: tuple[int, ...], m: int) -> int:
    """The M-bit word with the injected positions set (position 0 is the
    most significant bit, as in the bitstrings)."""
    return sum(1 << (m - 1 - p) for p in positions)


def run_case(case, family: str, shots: int, seed: int, error_positions=()) -> CaseReport:
    """Simulate on the tableau backend and classify every shot.  The family,
    the positions and `shots` are checked by the callees."""
    from qgqec import sim

    case = CaseId.parse(case)
    positions = tuple(error_positions)
    counts = sim.tableau_run(build_case_circuit(case, family, positions), shots, seed)
    failed = uncorrected_outcomes(aqecc.build_qc_code(case), counts.counts, positions)
    return CaseReport(
        case=case,
        family=family,
        counts=counts,
        corrected_shots=counts.total_shots - sum(counts.counts[o] for o in failed),
        stats=stats.summarize(counts, lambda outcome, count: outcome in failed),
        error_positions=positions,
        seed=seed,
    )


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


def exhaustive_correction_sweep(case, max_weight: int, threads: int | None = None) -> SweepResult:
    """Classically decode codeword ^ pattern for every codeword and every
    error pattern of weight 1..max_weight (at most M), one
    ``kernels.sweep_weight`` call per weight on the calling thread.  `threads`
    is accepted for compatibility and changes nothing: each weight is a
    sub-millisecond Python-int call, which a thread pool only slowed down."""
    from qgqec.backend import kernels

    case = CaseId.parse(case)
    m = case.m_physical
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if max_weight > m:
        raise ValueError(f"max_weight {max_weight} exceeds M={m}")
    codewords = aqecc.build_qc_code(case).codewords()
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
    return format_count_rows(sorted(counts.counts.items(), key=lambda kv: (-kv[1], kv[0])))
