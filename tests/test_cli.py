"""CLI behavior: exit codes, artifacts, determinism, reference comparisons."""

import json

import pytest
from click.testing import CliRunner

from qgqec import tables
from qgqec.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_run_unknown_case_exits_2(runner):
    result = runner.invoke(main, ["run", "--case", "c9"])
    assert result.exit_code == 2


def test_run_writes_report(runner, tmp_path):
    out = tmp_path / "r.json"
    result = invoke(
        runner,
        ["run", "--case", "c1", "--family", "aqecc", "--shots", "1024",
         "--seed", "42", "--errors", "3", "--out", str(out)],
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["corrected_shots"] == 1024
    assert report["total_shots"] == 1024


def test_run_capability_excess_is_data_not_failure(runner, tmp_path):
    out = tmp_path / "r.json"
    result = invoke(runner, ["run", "--case", "c3", "--errors", "0,1,2", "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["uncorrected_shots"] > 0


def test_run_invalid_errors_exit_2(runner):
    assert runner.invoke(main, ["run", "--case", "c1", "--errors", "9"]).exit_code == 2
    assert runner.invoke(main, ["run", "--case", "c1", "--errors", "1,1"]).exit_code == 2
    assert runner.invoke(main, ["run", "--case", "c1", "--errors", "a,b"]).exit_code == 2
    assert runner.invoke(main, ["run", "--case", "c1", "--shots", "0"]).exit_code == 2


def test_run_unwritable_path_exits_1(runner):
    result = runner.invoke(
        main, ["run", "--case", "c1", "--out", "/nonexistent-dir/report.json"]
    )
    assert result.exit_code == 1
    assert "cannot write" in result.output


def test_run_csv_format_and_barchart(runner, tmp_path):
    out = tmp_path / "counts.csv"
    chart = tmp_path / "chart.csv"
    result = invoke(
        runner,
        ["run", "--case", "c1", "--shots", "100", "--format", "csv",
         "--out", str(out), "--emit-barchart", str(chart)],
    )
    assert result.exit_code == 0
    assert out.read_text().splitlines()[0] == "outcome,count"
    chart_lines = chart.read_text().strip().splitlines()[1:]
    values = [int(line.rsplit(",", 1)[1]) for line in chart_lines]
    assert values == sorted(values, reverse=True)


def test_run_determinism_three_repetitions(runner, tmp_path):
    blobs = []
    for i in range(3):
        out = tmp_path / f"r{i}.json"
        invoke(runner, ["run", "--case", "c2", "--errors", "4", "--out", str(out)])
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_seed_env_override(runner, tmp_path):
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    out_default = tmp_path / "default.json"
    invoke(runner, ["run", "--case", "c1", "--shots", "64", "--out", str(out_env)],
           env={"QGQEC_SEED": "7"})
    invoke(runner, ["run", "--case", "c1", "--shots", "64", "--seed", "7", "--out", str(out_flag)])
    invoke(runner, ["run", "--case", "c1", "--shots", "64", "--out", str(out_default)])
    assert out_env.read_bytes() == out_flag.read_bytes()
    assert out_env.read_bytes() != out_default.read_bytes()
    # explicit flag beats the environment
    out_both = tmp_path / "both.json"
    invoke(runner, ["run", "--case", "c1", "--shots", "64", "--seed", "42",
                    "--out", str(out_both)], env={"QGQEC_SEED": "7"})
    assert out_both.read_bytes() == out_default.read_bytes()


def test_sweep_outputs_and_exit_codes(runner, tmp_path):
    out = tmp_path / "sweep.json"
    result = invoke(runner, ["sweep", "--case", "c1", "--max-weight", "1", "--out", str(out)])
    assert result.exit_code == 0
    assert "patterns_tested: 64" in result.output
    assert "patterns_corrected: 64" in result.output
    summary = json.loads(out.read_text())
    assert summary["all_corrected_within_capability"] is True

    # weight-2 failures are informational, still exit 0
    result2 = invoke(runner, ["sweep", "--case", "c1", "--max-weight", "2"])
    assert result2.exit_code == 0
    assert "weight 2:" in result2.output

    assert runner.invoke(main, ["sweep", "--case", "c9"]).exit_code == 2
    assert runner.invoke(main, ["sweep", "--case", "c1", "--max-weight", "0"]).exit_code == 2


def test_sweep_thread_counts_byte_identical(runner, tmp_path):
    outputs = []
    files = []
    for threads in (1, 4, 8):
        out = tmp_path / f"s{threads}.json"
        result = invoke(
            runner,
            ["sweep", "--case", "c3", "--max-weight", "2",
             "--threads", str(threads), "--out", str(out)],
        )
        outputs.append(result.output)
        files.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert files[0] == files[1] == files[2]


@pytest.mark.parametrize("threads", ["0", "-2", "8"])
def test_sweep_any_thread_count_matches_no_flag(runner, threads):
    plain = invoke(runner, ["sweep", "--case", "c1"])
    flagged = invoke(runner, ["sweep", "--case", "c1", "--threads", threads])
    assert flagged.exit_code == plain.exit_code == 0
    assert flagged.output == plain.output


def test_stats_fixture_reference_matches_and_discrepancies(runner):
    result = invoke(runner, ["stats", "t1", "--reference", "t1"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "mean: 3.2 | paper: 3.2 | MATCH"
    assert lines[1].startswith("variance: 2.76") and lines[1].endswith("DISCREPANCY")
    assert "paper: 1.16" in lines[1]
    assert lines[2].startswith("error_rate_percent: 78.125") and lines[2].endswith("DISCREPANCY")
    assert "paper: 68.75" in lines[2]


def test_stats_two_column_table(runner):
    gt = invoke(runner, ["stats", "t5", "--column", "gt", "--reference", "t5"])
    assert gt.output.count("MATCH") == 3  # the one fully reproducible row
    qc = invoke(runner, ["stats", "t5", "--column", "qc", "--reference", "t5"])
    assert "DISCREPANCY" in qc.output  # paper variance 6 vs computed 21.5


def test_stats_file_input(runner, tmp_path):
    csv_path = tmp_path / "t1.csv"
    rows = tables.get_table("t1").rows()
    csv_path.write_text(
        "outcome,count\n" + "\n".join(f'"{o}",{c}' for o, c in rows) + "\n"
    )
    result = invoke(runner, ["stats", str(csv_path), "--reference", "t1"])
    assert "mean: 3.2 | paper: 3.2 | MATCH" in result.output
    assert "num_outcomes: 10" in result.output


def test_stats_decoded_classifier(runner, tmp_path):
    run_out = tmp_path / "r.json"
    invoke(runner, ["run", "--case", "c3", "--shots", "128", "--errors", "1",
                    "--format", "csv", "--out", str(run_out)])
    result = invoke(
        runner,
        ["stats", str(run_out), "--classifier", "decoded", "--case", "c3", "--errors", "1"],
    )
    assert result.exit_code == 0
    assert "error_rate_percent: 0.0" in result.output


def test_stats_two_column_table_needs_column(runner):
    assert runner.invoke(main, ["stats", "t5"]).exit_code == 2


def test_stats_single_outcome_file(runner, tmp_path):
    single = tmp_path / "one.csv"
    single.write_text('outcome,count\n"0000",7\n')
    result = invoke(runner, ["stats", str(single)])
    assert result.exit_code == 0
    assert "mean: 7.0" in result.output
    assert "variance: 0.0" in result.output
    assert "error_rate_percent: 0.0" in result.output


def test_stats_malformed_inputs_exit_2(runner, tmp_path):
    assert runner.invoke(main, ["stats", "nosuchfile.csv"]).exit_code == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert runner.invoke(main, ["stats", str(empty)]).exit_code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("outcome,count\nfoo\n")
    assert runner.invoke(main, ["stats", str(bad)]).exit_code == 2


def test_stats_unknown_reference_exits_2(runner):
    result = runner.invoke(main, ["stats", "t2", "--reference", "t9"])
    assert result.exit_code == 2
    assert "unknown table 't9'" in result.output


def test_stats_repetitions_identical(runner):
    outputs = {invoke(runner, ["stats", "t2", "--reference", "t2"]).output for _ in range(3)}
    assert len(outputs) == 1


def test_export_code(runner, tmp_path):
    out = tmp_path / "code.json"
    result = invoke(runner, ["export-code", "--case", "c3", "--out", str(out)])
    assert result.exit_code == 0
    code = json.loads(out.read_text())
    assert code["base"] == "1111100000000"
    assert code["m"] == 13 and code["n"] == 1 and code["d"] == 5 and code["p"] == 2
    stdout_version = invoke(runner, ["export-code", "--case", "c3"])
    assert json.loads(stdout_version.output) == code


def test_backends_check_small(runner):
    result = invoke(runner, ["backends-check", "--circuits", "10"])
    assert result.exit_code == 0
    assert "backends agree" in result.output


@pytest.mark.parametrize("flag, value", [
    ("--max-qubits", "0"),
    ("--max-gates", "0"),
    ("--max-qubits", "17"),
    ("--circuits", "-1"),
])
def test_backends_check_out_of_range_exits_2(runner, flag, value):
    result = runner.invoke(main, ["backends-check", "--circuits", "3", flag, value])
    assert result.exit_code == 2
    assert f"Invalid value for '{flag}'" in result.output
    assert "backends agree" not in result.output
