"""Cross-version pins: sha256 of CLI output for fixed flags.

The ``run`` and ``backends-check`` digests in ``golden/cli_digests.json``
were recorded from the per-shot tableau sampler and the branching
distribution enumerator that the affine sampler replaced; the ``sweep``,
``export-code`` and ``stats`` digests from the k^2-popcount Python decode
sweep that the linear numpy sweep replaced, and the C4 sweeps at weights 14
and 29 from that per-pattern numpy sweep before the composition sweep
replaced it; the 400- and 30-circuit ``backends-check`` digests from the
``tensordot``-per-gate dense engine that the index-update engine replaced.
Any change to sampled counts, sweep counts, report layout or cross-check
output shows up here.  Re-record only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qgqec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_digests.json"

# (case, error-free, P errors, P + 1 errors); P = 1, 1, 2, 5
ERRORS = {
    "c1": ("", "3", "0,5"),
    "c2": ("", "7", "2,9"),
    "c3": ("", "0,6", "1,5,12"),
    "c4": ("", "0,3,11,17,28", "0,3,11,17,28,9"),
}
SEEDS = (1, 42, 31337)

# the dense oracle against the tableau engine: the crosscheck workload's
# shapes (400 circuits, <= 12 qubits, <= 80 gates) at three seeds, and one
# run that reaches 13..16-qubit states
CROSSCHECKS = [["backends-check", "--circuits", "50", "--max-qubits", "12", "--max-gates", "80"]]
CROSSCHECKS += [["backends-check", "--circuits", "400", "--max-qubits", "12", "--max-gates", "80",
                 "--seed", seed] for seed in ("1", "7", "20240")]
CROSSCHECKS += [["backends-check", "--circuits", "30", "--max-qubits", "16", "--max-gates", "120",
                 "--seed", "5"]]

# default weight P, beyond-P weights (C4 up to M), and fixed thread counts
# (output must not depend on --threads)
SWEEPS = [["sweep", "--case", case] for case in ERRORS]
SWEEPS += [["sweep", "--case", case, "--max-weight", w]
           for case, w in (("c1", "8"), ("c2", "10"), ("c3", "13"), ("c4", "6"),
                           ("c4", "14"), ("c4", "29"))]
SWEEPS += [["sweep", "--case", case, "--threads", t] + extra
           for t in ("1", "3")
           for case, extra in (("c4", []), ("c2", ["--max-weight", "10"]))]
EXPORTS = [["export-code", "--case", case] for case in ERRORS]
STATS = [["stats", f"t{i}", "--reference", f"t{i}"] for i in range(1, 5)]
STATS += [["stats", f"t{i}", "--reference", f"t{i}", "--column", col]
          for i in range(5, 9) for col in ("qc", "gt")]
STATS += [["stats", "t1", "--classifier", "decoded"],
          ["stats", "t8", "--column", "qc", "--classifier", "decoded", "--reference", "t8"]]


def commands() -> dict[str, list[str]]:
    out = {}
    for case, error_sets in ERRORS.items():
        for errors in error_sets:
            for seed in SEEDS:
                for fmt in ("json", "csv"):
                    argv = ["run", "--case", case, "--shots", "1024", "--seed", str(seed),
                            "--format", fmt]
                    if errors:
                        argv += ["--errors", errors]
                    out[" ".join(argv)] = argv
    for argv in CROSSCHECKS + SWEEPS + EXPORTS + STATS:
        out[" ".join(argv)] = argv
    return out


def digest(argv: list[str]) -> str:
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return hashlib.sha256(result.stdout_bytes).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(recorded):
    assert set(recorded) == set(commands())


@pytest.mark.parametrize("key", sorted(commands()))
def test_cli_output_matches_recorded_digest(recorded, key):
    assert digest(commands()[key]) == recorded[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {key: digest(argv) for key, argv in sorted(commands().items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(table)} digests to {GOLDEN}\n")
