"""Command-line front end: run cases, sweeps, statistics, code export, and
the simulator cross-validation suite.  Only ``cases`` and ``circuits`` are
imported up front; every other library module is imported inside the
commands that use it (the simulating ones, and with them numpy, in ``run``
and ``backends-check``; the kernel module alone in ``sweep``), so ``--help``
loads none of them and ``stats``, ``export-code`` and ``sweep`` load no
numpy.  Every integer option, and QGQEC_SEED, is read as a plain decimal
(``circuits.parse_int``).

Exit codes: 0 success (including scientific findings such as capability
exceeded), 2 configuration/input errors, 1 internal failures.  Identical
flags always produce byte-identical output; QGQEC_SEED overrides the default
seed, an explicit --seed wins over both.  Shot sampling takes the seed mod
2^64; it is not rejected outside 0..2^64-1.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from qgqec.cases import FAMILIES, CaseId
from qgqec.circuits import STATEVECTOR_QUBIT_CAP, Counts, parse_count_rows, parse_int

CASE_CHOICES = click.Choice([case.name.lower() for case in CaseId], case_sensitive=False)
# Each flag that sets an amount of work has a maximum, so that every
# in-range call ends; the help of each names its largest call's time.
MAX_SHOTS = 1 << 30
MAX_CIRCUITS = 10_000
MAX_GATES = 1_000


class DecimalInt(click.types.IntParamType):
    """click's INTEGER read with ``parse_int``: '1_0', '+3' and non-ASCII
    digits, which int() takes, fail as any non-integer text does."""

    def convert(self, value, param, ctx):
        if isinstance(value, str):
            try:
                value = parse_int(value)
            except ValueError:
                self.fail(f"{value!r} is not a valid {self.name}.", param, ctx)
        return super().convert(value, param, ctx)


class DecimalIntRange(DecimalInt, click.IntRange):
    """click's INTEGER RANGE, read the same way."""


_seed_option = click.option(
    "--seed",
    type=DecimalInt(),
    default=42,
    envvar="QGQEC_SEED",
    show_default=True,
    help="Seed (QGQEC_SEED overrides the default). Shot sampling takes it mod 2^64, "
         "so s and s + 2^64 sample the same shots; reports echo it as given.",
)


def _parse_errors(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(parse_int(p) for p in text.replace(" ", "").split(",") if p != "")
    except ValueError:
        raise click.UsageError(f"--errors must be a comma list of integers, got {text!r}")


def _path_given(ctx, param, value: str | None) -> str | None:
    """An output path option: absent, or a non-empty path."""
    if value == "":
        raise click.BadParameter("must not be empty")
    return value


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
@click.option("--family", type=click.Choice(FAMILIES), default="aqecc", show_default=True,
              help="A label only: both families run the same quasi-cyclic circuit, and their "
                   "reports differ only in the family field.")
@click.option("--shots", type=DecimalIntRange(1, MAX_SHOTS), default=1024, show_default=True,
              help="At most 2^30, which takes about 18 s on a 2-vCPU Xeon host.")
@_seed_option
@click.option("--errors", "errors_text", default=None, help="Comma list of error positions, e.g. 0,1,2.")
@click.option("--out", "out_path", default=None, callback=_path_given,
              help="Report file (stdout when omitted).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--emit-barchart", "barchart_path", default=None, callback=_path_given,
              help="Write outcome,count CSV sorted by count.")
def run(case_name, family, shots, seed, errors_text, out_path, fmt, barchart_path):
    """Encode, inject errors, simulate, decode, and report one case."""
    from qgqec import experiments

    errors = _parse_errors(errors_text)
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
@click.option("--max-weight", type=DecimalInt(), default=None, help="Defaults to the case capability P.")
@click.option("--threads", type=DecimalInt(), default=None,
              help="Accepted for compatibility; the sweep runs on one thread.")
@click.option("--out", "out_path", default=None, callback=_path_given,
              help="Optional JSON summary file.")
def sweep(case_name, max_weight, threads, out_path):
    """Exhaustively decode every error pattern up to a weight."""
    from qgqec import experiments

    case = CaseId.parse(case_name)
    if max_weight is None:
        max_weight = case.capability
    if not 1 <= max_weight <= case.m_physical:
        raise click.UsageError(
            f"--max-weight must be in 1..{case.m_physical} (M), got {max_weight}")
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
    from qgqec import stats, tables

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
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot read counts input {input_ref!r}: {exc.strerror}")
    except UnicodeDecodeError:
        raise click.UsageError(f"counts input {input_ref!r} is not UTF-8 text")
    try:
        if text.lstrip().startswith("{"):
            return stats.as_rows(Counts.from_json(text)), None
        return parse_count_rows(text), None
    except (ValueError, KeyError) as exc:
        raise click.UsageError(f"malformed counts input {input_ref!r}: {exc}")


@main.command(name="stats")
@click.argument("input_ref")
@click.option("--classifier", type=click.Choice(["argmax", "decoded"]), default="argmax", show_default=True)
@click.option("--reference", "reference_id", default=None, help="Paper table id (t1..t8) to compare against.")
@click.option("--column", type=click.Choice(["qc", "gt"], case_sensitive=False), default=None,
              help="Column of a two-column input and --reference table; without it, a "
                   "two-column --reference is read from its QC column.")
@click.option("--case", "case_name", type=CASE_CHOICES, default=None, help="Code for the decoded classifier.")
@click.option("--errors", "errors_text", default=None, help="Injected positions for the decoded classifier.")
def stats_cmd(input_ref, classifier, reference_id, column, case_name, errors_text):
    """Mean, population variance, and error rate of a counts table."""
    from qgqec import stats, tables

    rows, table = _load_rows(input_ref, column)

    if classifier == "argmax":
        is_error = stats.argmax_classifier(rows)
    else:
        if case_name is None and table is not None:
            case_name = table.case
        if case_name is None:
            raise click.UsageError("--classifier decoded needs --case")
        from qgqec import aqecc, experiments

        code = aqecc.build_qc_code(CaseId.parse(case_name))
        try:
            errors = experiments.check_error_positions(_parse_errors(errors_text),
                                                       code.spec.m_physical)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        try:
            failed = experiments.uncorrected_outcomes(code, [outcome for outcome, _ in rows], errors)
        except ValueError as exc:
            raise click.UsageError(f"decoded classifier failed: {exc}")
        is_error = lambda outcome, count: outcome in failed  # noqa: E731

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
@click.option("--out", "out_path", default=None, callback=_path_given,
              help="Output file (stdout when omitted).")
def export_code(case_name, out_path):
    """Write the quasi-cyclic code for a case as JSON."""
    from qgqec import aqecc

    code = aqecc.build_qc_code(CaseId.parse(case_name))
    _write_output(out_path, code.to_json() + "\n")


@main.command(name="backends-check")
@click.option("--circuits", type=DecimalIntRange(0, MAX_CIRCUITS), default=200, show_default=True)
@click.option("--max-qubits", type=DecimalIntRange(1, STATEVECTOR_QUBIT_CAP), default=8,
              show_default=True)
@click.option("--max-gates", type=DecimalIntRange(1, MAX_GATES), default=40, show_default=True)
@_seed_option
def backends_check(circuits, max_qubits, max_gates, seed):
    """Cross-validate the tableau engine against the dense oracle.

    The largest call, --circuits 10000 --max-qubits 16 --max-gates 1000,
    takes about 5 minutes on a 2-vCPU Xeon host."""
    from qgqec import sim
    from qgqec.backend import BACKEND_NAME, available_backends

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
