"""Command-line front end: run cases, sweeps, statistics, code export, and
the simulator cross-validation suite.

Exit codes: 0 success (including scientific findings such as capability
exceeded), 2 configuration/input errors, 1 internal failures.  Identical
flags always produce byte-identical output; QGQEC_SEED overrides the default
seed, an explicit --seed wins over both.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from qgqec import aqecc, experiments, sim, stats, tables
from qgqec.backend import BACKEND_NAME, available_backends
from qgqec.cases import CaseId
from qgqec.circuits import parse_count_rows

CASE_CHOICES = click.Choice(["c1", "c2", "c3", "c4"], case_sensitive=False)
_seed_option = click.option(
    "--seed",
    type=int,
    default=42,
    envvar="QGQEC_SEED",
    show_default=True,
    help="Measurement seed (QGQEC_SEED overrides the default).",
)


def _parse_errors(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(",") if p != "")
    except ValueError:
        raise click.UsageError(f"--errors must be a comma list of integers, got {text!r}")


def _write_output(path: str | None, payload: str) -> None:
    if path is None:
        click.echo(payload, nl=not payload.endswith("\n"))
        return
    try:
        Path(path).write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")


@click.group()
def main():
    """Quasi-cyclic / quasi-orthogonal code construction and simulation."""


@main.command()
@click.option("--case", "case_name", type=CASE_CHOICES, required=True)
@click.option("--family", type=click.Choice(["qoccc", "aqecc"]), default="aqecc", show_default=True)
@click.option("--shots", type=int, default=1024, show_default=True)
@_seed_option
@click.option("--errors", "errors_text", default=None, help="Comma list of error positions, e.g. 0,1,2.")
@click.option("--out", "out_path", default=None, help="Report file (stdout when omitted).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--emit-barchart", "barchart_path", default=None, help="Write outcome,count CSV sorted by count.")
def run(case_name, family, shots, seed, errors_text, out_path, fmt, barchart_path):
    """Encode, inject errors, simulate, decode, and report one case."""
    errors = _parse_errors(errors_text)
    if shots < 1:
        raise click.UsageError("--shots must be >= 1")
    try:
        report = experiments.run_case(CaseId.parse(case_name), family, shots, seed, errors)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = report.to_json() + "\n" if fmt == "json" else report.counts.to_csv()
    _write_output(out_path, payload)
    if barchart_path:
        _write_output(barchart_path, experiments.barchart_csv(report.counts))
    if out_path:
        click.echo(
            f"case {report.case.name} family {family}: corrected {report.corrected_shots}"
            f"/{report.counts.total_shots} shots -> {out_path}"
        )


@main.command()
@click.option("--case", "case_name", type=CASE_CHOICES, required=True)
@click.option("--max-weight", type=int, default=None, help="Defaults to the case capability P.")
@click.option("--threads", type=int, default=None,
              help="Accepted for compatibility; the sweep runs on one thread.")
@click.option("--out", "out_path", default=None, help="Optional JSON summary file.")
def sweep(case_name, max_weight, threads, out_path):
    """Exhaustively decode every error pattern up to a weight."""
    case = CaseId.parse(case_name)
    if max_weight is None:
        max_weight = case.capability
    if max_weight < 1:
        raise click.UsageError("--max-weight must be >= 1")
    result = experiments.exhaustive_correction_sweep(case, max_weight, threads)
    for w, tested, corrected in result.per_weight:
        click.echo(f"weight {w}: {corrected}/{tested} corrected")
    click.echo(f"patterns_tested: {result.patterns_tested}")
    click.echo(f"patterns_corrected: {result.patterns_corrected}")
    within = min(max_weight, case.capability)
    ok = result.all_corrected_up_to(within)
    click.echo(f"all corrected up to weight {within}: {ok}")
    if out_path:
        _write_output(out_path, result.to_json() + "\n")
    if not ok:
        raise SystemExit(1)


def _load_rows(input_ref: str, column: str | None):
    """Counts rows from an embedded table id or an outcome,count/JSON file."""
    if input_ref.lower() in tables.COUNT_TABLES:
        table = tables.get_table(input_ref)
        needs_col = len(table.columns) > 1
        try:
            return list(table.rows(column if needs_col else None)), table
        except ValueError as exc:
            raise click.UsageError(str(exc))
    path = Path(input_ref)
    if not path.exists():
        raise click.UsageError(f"{input_ref!r} is neither a table id nor a file")
    text = path.read_text(encoding="utf-8")
    try:
        if text.lstrip().startswith("{"):
            from qgqec.circuits import Counts

            counts = Counts.from_json(text)
            return stats.as_rows(counts), None
        return parse_count_rows(text), None
    except (ValueError, KeyError) as exc:
        raise click.UsageError(f"malformed counts input {input_ref!r}: {exc}")


@main.command(name="stats")
@click.argument("input_ref")
@click.option("--classifier", type=click.Choice(["argmax", "decoded"]), default="argmax", show_default=True)
@click.option("--reference", "reference_id", default=None, help="Paper table id (t1..t8) to compare against.")
@click.option("--column", type=click.Choice(["qc", "gt"], case_sensitive=False), default=None,
              help="Column for two-column tables.")
@click.option("--case", "case_name", type=CASE_CHOICES, default=None, help="Code for the decoded classifier.")
@click.option("--errors", "errors_text", default=None, help="Injected positions for the decoded classifier.")
def stats_cmd(input_ref, classifier, reference_id, column, case_name, errors_text):
    """Mean, population variance, and error rate of a counts table."""
    rows, table = _load_rows(input_ref, column)

    if classifier == "argmax":
        is_error = stats.argmax_classifier(rows)
    else:
        if case_name is None and table is not None:
            case_name = table.case
        if case_name is None:
            raise click.UsageError("--classifier decoded needs --case")
        code = aqecc.build_qc_code(CaseId.parse(case_name))
        errors = _parse_errors(errors_text)
        try:
            flags = {
                outcome: not experiments.classify_outcome(code, outcome, errors)
                for outcome, _ in rows
            }
        except ValueError as exc:
            raise click.UsageError(f"decoded classifier failed: {exc}")
        is_error = lambda outcome, count: flags[outcome]  # noqa: E731

    try:
        summary = stats.summarize(rows, is_error)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    reference = None
    if reference_id is not None:
        try:
            ref_table = tables.get_table(reference_id)
            col = column if column else ("QC" if len(ref_table.columns) > 1 else None)
            reference = tables.reference_for(reference_id, col)
        except ValueError as exc:
            raise click.UsageError(str(exc))

    for label, value in (
        ("mean", summary.mean),
        ("variance", summary.variance),
        ("error_rate_percent", summary.error_rate_percent),
    ):
        if reference is None:
            click.echo(f"{label}: {value!r}")
            continue
        ref_key = "error_rate" if label == "error_rate_percent" else label
        ref_value = reference[ref_key]
        verdict = "MATCH" if math.isclose(value, ref_value, abs_tol=1e-6) else "DISCREPANCY"
        click.echo(f"{label}: {value!r} | paper: {ref_value!r} | {verdict}")
    click.echo(f"num_outcomes: {summary.num_outcomes}")
    click.echo(f"total_counts: {summary.total_counts}")


@main.command(name="export-code")
@click.option("--case", "case_name", type=CASE_CHOICES, required=True)
@click.option("--out", "out_path", default=None, help="Output file (stdout when omitted).")
def export_code(case_name, out_path):
    """Write the quasi-cyclic code for a case as JSON."""
    code = aqecc.build_qc_code(CaseId.parse(case_name))
    _write_output(out_path, code.to_json() + "\n")


@main.command(name="backends-check")
@click.option("--circuits", type=click.IntRange(min=0), default=200, show_default=True)
@click.option("--max-qubits", type=click.IntRange(1, sim.STATEVECTOR_QUBIT_CAP), default=8,
              show_default=True)
@click.option("--max-gates", type=click.IntRange(min=1), default=40, show_default=True)
@_seed_option
def backends_check(circuits, max_qubits, max_gates, seed):
    """Cross-validate the tableau engine against the dense oracle."""
    click.echo(f"kernel backend: {BACKEND_NAME} (available: {', '.join(available_backends())})")
    report = sim.backend_equivalence(circuits, max_qubits, max_gates, seed=seed)
    click.echo(
        f"{report['circuits']} circuits, worst total variation {report['worst_tv']:.3e} "
        f"(tolerance {report['tolerance']:.0e})"
    )
    for failure in report["failures"]:
        click.echo(f"FAIL circuit {failure['circuit']}: tv={failure['tv']:.3e}", err=True)
    if not report["passed"]:
        raise SystemExit(1)
    click.echo("backends agree")


if __name__ == "__main__":
    sys.exit(main())
