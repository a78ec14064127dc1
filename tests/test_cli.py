"""CLI behavior: exit codes, artifacts, determinism, reference comparisons."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qgqec
from qgqec import experiments, sim, tables
from qgqec.cases import CaseId
from qgqec.circuits import parse_int
from qgqec.cli import MAX_CIRCUITS, MAX_GATES, MAX_SHOTS, main
from sim_reference import per_shot_reference


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
    # int() would read each of these as a position in 0..7
    for errors in ("+3", "\u0663", "0_1"):
        result = runner.invoke(main, ["run", "--case", "c1", "--errors", errors])
        assert result.exit_code == 2
        assert f"--errors must be a comma list of integers, got {errors!r}" in result.output
    assert runner.invoke(main, ["run", "--case", "c1", "--shots", "0"]).exit_code == 2


@pytest.mark.parametrize("extra", [[], ["--seed", "7", "--errors", "0,5"]])
def test_run_one_shot(runner, extra):
    """--shots 1, the smallest accepted, exits 0 with the one shot that the
    per-shot loop measures."""
    result = invoke(runner, ["run", "--case", "c3", "--shots", "1", *extra])
    assert result.exit_code == 0
    report = json.loads(result.output)
    circuit = experiments.build_case_circuit(CaseId.C3, "aqecc", report["error_positions"])
    [outcome] = per_shot_reference(13, sim._clifford_ops(circuit), 1, report["seed"])
    assert report["total_shots"] == 1
    assert report["counts"] == {format(outcome, "013b")[::-1]: 1}


def test_run_shots_past_the_cap_exit_2(runner):
    for shots in (MAX_SHOTS + 1, 10 ** 21):
        result = runner.invoke(main, ["run", "--case", "c1", "--shots", str(shots)])
        assert result.exit_code == 2
        assert "Invalid value for '--shots'" in result.output


@pytest.mark.parametrize("case, errors", [("c1", "3"), ("c3", "1,5,12"), ("c4", "")])
def test_family_is_only_a_label(runner, case, errors):
    reports = {}
    for family in ("qoccc", "aqecc"):
        argv = ["run", "--case", case, "--family", family, "--shots", "256", "--seed", "9"]
        reports[family] = json.loads(invoke(runner, argv + ["--errors", errors]).output)
    assert reports["qoccc"].pop("family") == "qoccc"
    assert reports["aqecc"].pop("family") == "aqecc"
    assert reports["qoccc"] == reports["aqecc"]


# Runs one command in a fresh interpreter (none for an empty argv), or after
# "--import" only imports the modules named, and prints the names of the
# modules loaded by then, as the last line of stderr.
_LIST_MODULES = (
    "import atexit, importlib, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
    "if sys.argv[1:2] == ['--import']:\n"
    "    for name in sys.argv[2:]:\n"
    "        importlib.import_module(name)\n"
    "else:\n"
    "    from qgqec.cli import main\n"
    "    if sys.argv[1:]:\n"
    "        main(sys.argv[1:])\n"
)


# `kernels`: whether it loads the kernel module; `uses`: which of the code,
# statistics and tables modules it loads
@pytest.mark.parametrize("argv, uses_numpy, simulates, kernels, uses", [
    ([], False, False, False, ""),
    (["stats", "t1"], False, False, False, "stats tables"),
    (["stats", "t1", "--classifier", "decoded", "--case", "c1", "--errors", "3"], False, False,
     False, "aqecc stats tables"),
    (["export-code", "--case", "c4"], False, False, False, "aqecc"),
    (["--help"], False, False, False, ""),
    (["run", "--case", "c1", "--shots", "8"], True, True, True, "aqecc stats"),
    (["sweep", "--case", "c4"], False, False, True, "aqecc stats"),
    (["--import", "qgqec.groups", "qgqec.qoccc"], True, False, False, ""),
], ids=["import", "stats", "stats-decoded", "export-code", "help", "run", "sweep", "paper-math"])
def test_only_simulating_commands_load_numpy(argv, uses_numpy, simulates, kernels, uses):
    src = str(Path(qgqec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _LIST_MODULES, *argv],
                          capture_output=True, text=True, env=env, check=True)
    loaded = set(json.loads(done.stderr.splitlines()[-1]))
    imported = argv[1:] if argv[:1] == ["--import"] else ["qgqec.cli"]
    assert set(imported) <= loaded
    assert {"qgqec.aqecc", "qgqec.stats", "qgqec.tables"} & loaded == \
        {f"qgqec.{name}" for name in uses.split()}
    assert ("numpy" in loaded) == uses_numpy
    assert ("qgqec.sim" in loaded) == simulates
    assert ("qgqec._kernels_py" in loaded) == kernels
    assert "qgqec.pauli" not in loaded


def test_run_unwritable_path_exits_1(runner):
    result = runner.invoke(
        main, ["run", "--case", "c1", "--out", "/nonexistent-dir/report.json"]
    )
    assert result.exit_code == 1
    assert "cannot write" in result.output


@pytest.mark.parametrize("argv", [
    ["run", "--case", "c1", "--out", ""],
    ["run", "--case", "c1", "--emit-barchart", ""],
    ["sweep", "--case", "c1", "--out", ""],
    ["export-code", "--case", "c1", "--out", ""],
])
def test_empty_output_path_exits_2(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"Invalid value for '{argv[-2]}': must not be empty" in result.output


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


def test_seeds_are_reduced_mod_2_64(runner):
    """Seeds s and s + 2^64 sample the same shots; the report echoes the seed
    as given."""
    def report(seed):
        result = invoke(runner, ["run", "--case", "c3", "--shots", "200", "--errors", "4",
                                 "--seed", str(seed)])
        return json.loads(result.output)

    low, high = report(1), report(1 + (1 << 64))
    assert (low["seed"], high["seed"]) == (1, 1 + (1 << 64))
    del low["seed"], high["seed"]
    assert low == high
    assert report(-1)["counts"] == report((1 << 64) - 1)["counts"]


# a small valid call of each command, to which one integer value is added
_SMALL_CALLS = {
    "run": ["run", "--case", "c1", "--shots", "8"],
    "sweep": ["sweep", "--case", "c3"],
    "backends-check": ["backends-check", "--circuits", "2"],
}


@pytest.mark.parametrize("value", ["1_0", "+3", "\u0663"])
@pytest.mark.parametrize("command, option", [
    ("run", "--shots"), ("run", "--seed"), ("run", "QGQEC_SEED"),
    ("sweep", "--max-weight"), ("sweep", "--threads"),
    ("backends-check", "--circuits"), ("backends-check", "--max-qubits"),
    ("backends-check", "--max-gates"), ("backends-check", "--seed"),
    ("backends-check", "QGQEC_SEED"),
])
def test_integer_options_take_only_plain_decimals(runner, command, option, value):
    """int() reads each value as 10 or 3, which every option here takes."""
    argv, env = list(_SMALL_CALLS[command]), {}
    if option == "QGQEC_SEED":
        env[option] = value
    else:
        argv += [option, value]
    result = runner.invoke(main, argv, env=env)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"{value!r} is not a valid integer" in result.output
    assert result.stdout == ""


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


def test_sweep_fails_when_one_weight_corrects_one_case_fewer(runner, monkeypatch):
    """C3 corrects every pattern up to P = 2; with one weight-1 case lost the
    verdict reads False and the command exits 1."""
    from qgqec.backend import kernels

    sweep_weight = kernels.sweep_weight

    def one_fewer(m, codewords, weight):
        tested, corrected = sweep_weight(m, codewords, weight)
        return tested, corrected - (weight == 1)

    assert invoke(runner, ["sweep", "--case", "c3"]).output.endswith(
        "all corrected up to weight 2: True\n")
    monkeypatch.setattr(kernels, "sweep_weight", one_fewer)
    result = runner.invoke(main, ["sweep", "--case", "c3"])
    assert result.exit_code == 1
    assert result.output.endswith("all corrected up to weight 2: False\n")


@st.composite
def sweep_argvs(draw):
    """(argv, case) for `sweep`: every --max-weight in 1..M, boundary,
    negative, huge and non-integer ones, or none; any --threads."""
    case = draw(st.sampled_from(list(CaseId)))
    m = case.m_physical
    argv = ["sweep", "--case", draw(st.sampled_from([case.name.lower(), case.name]))]
    max_weight = {
        "none": st.none(),
        "valid": st.integers(1, m).map(str),
        "boundary": st.sampled_from(["0", str(m + 1), "-1", " 3", "+2", "1_0"]),
        "negative": st.integers(-(10 ** 30), -1).map(str),
        "huge": st.integers(m + 1, 10 ** 30).map(str),
        "text": st.sampled_from(["", "1.5", "two", "0x3", "2e1", "nan"]),
    }[draw(st.sampled_from(["none", "valid", "valid", "valid",
                            "boundary", "negative", "huge", "text"]))]
    max_weight = draw(max_weight)
    if max_weight is not None:
        argv += ["--max-weight", max_weight]
    threads = {
        "none": st.none(),
        "int": st.integers(-(10 ** 20), 10 ** 20).map(str),
        "text": st.sampled_from(["", "x", "1.5"]),
    }[draw(st.sampled_from(["none", "int", "int", "text"]))]
    threads = draw(threads)
    if threads is not None:
        argv += ["--threads", threads]
    return argv, case, max_weight


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sweep_argvs())
def test_sweep_any_input_exits_0_or_2_without_traceback(drawn):
    argv, case, max_weight = drawn
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if result.exit_code == 0:
        weight = case.capability if max_weight is None else int(max_weight)
        assert 1 <= weight <= case.m_physical
        lines = result.stdout.splitlines()
        assert len(lines) == weight + 3
        assert lines[-1] == f"all corrected up to weight {min(weight, case.capability)}: True"
    else:
        assert "Error" in result.output and "Traceback" not in result.output


def test_sweep_max_weight_above_m_exits_2(runner):
    result = runner.invoke(main, ["sweep", "--case", "c1", "--max-weight", "9"])
    assert result.exit_code == 2
    assert "--max-weight must be in 1..8 (M), got 9" in result.output
    assert "weight 9" not in result.output


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


@pytest.mark.parametrize("errors, message", [
    ("0,0", "error positions must be distinct"),
    ("8", "error position 8 out of range for M=8"),
    ("-1", "error position -1 out of range for M=8"),
])
def test_stats_decoded_classifier_rejects_bad_errors_like_run(runner, errors, message):
    stats = runner.invoke(main, ["stats", "t1", "--classifier", "decoded", "--case", "c1",
                                 f"--errors={errors}"])
    run = runner.invoke(main, ["run", "--case", "c1", f"--errors={errors}"])
    assert stats.exit_code == run.exit_code == 2
    assert f"Error: {message}\n" in stats.output
    assert f"Error: {message}\n" in run.output


# (file name, contents, message): inputs that each once exited 0 or 1
_MALFORMED_STATS_INPUTS = [
    ("signs.csv", 'outcome,count\n"0000_001",5\n"+0000001",3\n"-0000001",2\n',
     "not a '0'/'1' bitstring: '0000_001'"),
    ("oversized.csv", 'outcome,count\n"' + "0" * 131_073 + '",1\n',
     "malformed counts input"),
    ("deep.json", '{"counts": ' + "[" * 100_000 + "]" * 100_000 + "}",
     "malformed counts input"),
    # counts that int() would accept; only the count is at fault
    ("underscore.csv", 'outcome,count\n"00000000", 4 \n"00000001",1_0\n',
     "malformed counts input"),
    ("plus.csv", 'outcome,count\n"00000000", 4 \n"00000001",+3\n', "malformed counts input"),
    ("arabic_indic.csv", 'outcome,count\n"00000000", 4 \n"00000001",\u0663\n',
     "malformed counts input"),
    # json alone keeps the last value of a repeated key, dropping the others
    ("repeated_key.json", '{"counts": {"00000000": 1, "00000000": 2}, "total_shots": 2}',
     'repeated key "00000000" in counts JSON'),
    ("repeated_total.json",
     '{"counts": {"00000000": 1, "00000001": 1}, "total_shots": 1, "total_shots": 2}',
     'repeated key "total_shots" in counts JSON'),
    # a stated total of 0 is compared like any other, not derived from the counts
    ("zero_total.json", '{"total_shots": 0, "counts": {"00000001": 5, "00000010": 3}}',
     "counts sum 8 != total_shots 0"),
]


@pytest.mark.parametrize("name, text, message", _MALFORMED_STATS_INPUTS,
                         ids=[name for name, _, _ in _MALFORMED_STATS_INPUTS])
def test_stats_malformed_input_exits_2(runner, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["stats", str(path), "--classifier", "decoded",
                                  "--case", "c1", "--errors", "7"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output


# (file name, contents, message): counts that CSV once took and JSON refused,
# or that both took; one rule now refuses them in both formats
_BAD_OUTCOME_INPUTS = [
    ("mixed.csv", 'outcome,count\n"01",3\n"011",4\n', "outcomes have mixed bit widths"),
    ("mixed.json", '{"total_shots": 7, "counts": {"01": 3, "011": 4}}',
     "outcomes have mixed bit widths"),
    ("not_binary.csv", 'outcome,count\n"01",3\n"0a",4\n', "not a '0'/'1' bitstring: '0a'"),
    ("not_binary.json", '{"total_shots": 7, "counts": {"01": 3, "0a": 4}}',
     "not a '0'/'1' bitstring: '0a'"),
]


@pytest.mark.parametrize("name, text, message", _BAD_OUTCOME_INPUTS,
                         ids=[name for name, _, _ in _BAD_OUTCOME_INPUTS])
def test_stats_outcomes_follow_one_rule_in_csv_and_json(runner, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["stats", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"Error: malformed counts input {str(path)!r}: {message}\n" in result.output
    assert "mean:" not in result.output


def test_stats_two_column_table_needs_column(runner):
    assert runner.invoke(main, ["stats", "t5"]).exit_code == 2
    result = runner.invoke(main, ["stats", "t5", "--reference", "t5"])
    assert result.exit_code == 2
    assert "pick one" in result.output


def test_stats_two_column_reference_defaults_to_qc(runner):
    """t5's QC and GT rows share the mean 10.0; the variance tells them apart."""
    lines = invoke(runner, ["stats", "t1", "--reference", "t5"]).output.splitlines()
    assert lines[1].startswith("variance: ")
    assert lines[1].endswith("paper: 6.0 | DISCREPANCY")


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


@pytest.mark.parametrize("text", [
    'outcome,count\n"01",-3\n',
    'outcome,count\n"00",-1\n"01",-3\n',
    'outcome,count\n"00",5\n"01",-3\n"10",2\n',
    '{"total_shots": 2, "counts": {"00": 5, "01": -3}}',
])
def test_stats_negative_counts_exit_2(runner, tmp_path, text):
    path = tmp_path / "negative.csv"
    path.write_text(text)
    result = runner.invoke(main, ["stats", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "negative count" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("text, shown", [
    ('{"counts": {"00": 2.7, "01": 1.2}, "total_shots": 3}', "2.7"),
    ('{"counts": {"00": true, "01": 2}, "total_shots": 3}', "true"),
    ('{"counts": {"00": 1, "01": "2"}, "total_shots": 3}', '"2"'),
    ('{"counts": {"00": 1, "01": 2}, "total_shots": 3.0}', "3.0"),
])
def test_stats_json_counts_must_be_integers(runner, tmp_path, text, shown):
    """JSON counts are not coerced: 2.7 is not read as 2, nor true as 1."""
    path = tmp_path / "counts.json"
    path.write_text(text)
    result = runner.invoke(main, ["stats", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"counts and total_shots must be integers, got {shown}" in result.output
    assert "Traceback" not in result.output


def test_stats_json_integer_counts_exit_0(runner, tmp_path):
    path = tmp_path / "counts.json"
    path.write_text('{"counts": {"00": 2, "01": 1}, "total_shots": 3}')
    result = invoke(runner, ["stats", str(path)])
    assert result.exit_code == 0
    assert result.output.splitlines()[-2:] == ["num_outcomes: 2", "total_counts: 3"]


@pytest.mark.parametrize("kind", ["binary", "directory"])
def test_stats_unreadable_input_exits_2(runner, tmp_path, kind):
    if kind == "binary":
        path = tmp_path / "counts.csv"
        path.write_bytes(b'outcome,count\n"\xff\xfe",3\n')
    else:
        path = tmp_path / "counts"
        path.mkdir()
    result = runner.invoke(main, ["stats", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert repr(str(path)) in result.output


# small nested JSON values: the shapes a counts file may take by mistake
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 20) | st.floats() | st.text("01x", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("01", max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def stats_inputs(draw, tmp_path):
    """A table id (known or not) or a file of one of the kinds a user may
    pass, written under `tmp_path`."""
    kind = draw(st.sampled_from(["table", "table", "unknown", "csv", "csv", "json", "json",
                                 "json_shape", "json_shape", "binary", "text", "empty",
                                 "directory", "oversized_csv", "deep_json", "not_binary"]))
    if kind == "table":
        return draw(st.sampled_from(tables.table_ids() + ["T1", "t5"]))
    if kind == "unknown":
        return draw(st.sampled_from(["t0", "t9", "t10", "", "-", "x"]))
    if kind == "directory":
        path = tmp_path / "dir"
        path.mkdir(exist_ok=True)
        return str(path)
    path = tmp_path / "input"
    if kind == "binary":
        path.write_bytes(draw(st.binary(max_size=40)))
        return str(path)
    width = draw(st.integers(1, 6))
    outcome = st.text("01", min_size=width, max_size=width)
    if kind == "not_binary":  # the width of a case, from an alphabet beyond "01"
        width = draw(st.sampled_from([case.m_physical for case in CaseId]))
        outcome = st.text("01_+- 2", min_size=width, max_size=width)
    if kind in ("csv", "not_binary"):
        rows = draw(st.lists(st.tuples(outcome, st.integers(-2, 10 ** 6)), max_size=6))
        data = "outcome,count\n" + "".join(f'"{o}",{c}\n' for o, c in rows)
    elif kind == "json":
        counts = draw(st.dictionaries(outcome, st.integers(-2, 10 ** 6), max_size=6))
        total = draw(st.sampled_from([sum(counts.values()), 0, 7, "x"]))
        data = json.dumps({"total_shots": total, "counts": counts})
    elif kind == "json_shape":
        shape = {"counts": draw(_json_values), "total_shots": draw(_json_values)}
        data = json.dumps({key: shape[key] for key in draw(st.permutations(list(shape)))[
            :draw(st.integers(0, 2))]})
    elif kind == "oversized_csv":  # one field past the csv module's 131,072 limit
        data = 'outcome,count\n"' + "0" * draw(st.integers(131_073, 140_000)) + '",1\n'
    elif kind == "deep_json":  # nested past the recursion limit
        depth = draw(st.integers(50_000, 100_000))
        data = '{"counts": ' + "[" * depth + "]" * depth + ', "total_shots": 1}'
    elif kind == "text":
        data = draw(st.text(max_size=40))
    else:
        data = ""
    path.write_text(data, encoding="utf-8")
    return str(path)


# each option's values: mostly valid, so that the command body is reached
_stats_options = {
    "--column": st.sampled_from(["qc", "gt", "QC", "gt", "qc", "x"]),
    "--classifier": st.sampled_from(["argmax", "decoded", "decoded", "decoded", "mode"]),
    "--case": st.sampled_from(["c1", "c2", "c3", "C4", "c1", "c9"]),
    "--errors": st.sampled_from(["", "0", "1,3", "2", "0,0", "-1", "99", "1,x", "0,1,2,3,4"]),
    "--reference": st.sampled_from(tables.table_ids() + ["T2", "t9", ""]),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_stats_any_input_exits_0_or_2_without_traceback(tmp_path, data):
    argv = ["stats", data.draw(stats_inputs(tmp_path))]
    for option in data.draw(st.lists(st.sampled_from(sorted(_stats_options)), max_size=3)):
        argv += [option, data.draw(_stats_options[option])]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 2), (argv, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    if result.exit_code == 0:
        assert result.output.startswith("mean: ")
    else:
        assert "Error" in result.output and "Traceback" not in result.output


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


def test_backends_check_fails_when_one_circuit_moves(runner, monkeypatch):
    """Circuit 3's tableau distribution moves by 1e-3 on one outcome: the
    report and the command both fail, naming that circuit alone."""
    tableau_distribution = sim.tableau_distribution
    seen = []

    def moved(circuit):
        dist = tableau_distribution(circuit)
        seen.append(circuit)
        if len(seen) == 4:
            first = next(iter(dist))
            dist[first] += 1e-3
        return dist

    monkeypatch.setattr(sim, "tableau_distribution", moved)
    report = sim.backend_equivalence(10, 8, 40, seed=42)
    assert report["passed"] is False
    assert [(f["circuit"], f"{f['tv']:.3e}") for f in report["failures"]] == [(3, "5.000e-04")]
    seen.clear()
    result = runner.invoke(main, ["backends-check", "--circuits", "10"])
    assert result.exit_code == 1
    assert result.stderr == "FAIL circuit 3: tv=5.000e-04\n"
    assert "10 circuits, worst total variation 5.000e-04" in result.stdout
    assert "backends agree" not in result.output


@pytest.mark.parametrize("flag, value", [
    ("--max-qubits", "0"),
    ("--max-gates", "0"),
    ("--max-qubits", "17"),
    ("--circuits", "-1"),
    ("--circuits", str(MAX_CIRCUITS + 1)),
    ("--max-gates", str(MAX_GATES + 1)),
])
def test_backends_check_out_of_range_exits_2(runner, flag, value):
    result = runner.invoke(main, ["backends-check", "--circuits", "3", flag, value])
    assert result.exit_code == 2
    assert f"Invalid value for '{flag}'" in result.output
    assert "kernel backend" not in result.output and "backends agree" not in result.output


# the range click's IntRange gives each option (None: unbounded), and the
# valid values drawn for it, small enough to run
_BACKENDS_CHECK_OPTIONS = {
    "--circuits": ((0, MAX_CIRCUITS), st.integers(0, 5)),
    "--max-qubits": ((1, 16), st.integers(1, 16)),
    "--max-gates": ((1, MAX_GATES), st.integers(1, 30)),
    "--seed": ((None, None), st.integers(-(1 << 70), 1 << 70)),
}


def _click_int(text, low, high):
    """The value click takes from `text` for an int option in low..high, or
    None where it exits 2 (the options read ints with `parse_int`)."""
    try:
        value = parse_int(text)
    except ValueError:
        return None
    if (low is not None and value < low) or (high is not None and value > high):
        return None
    return value


@st.composite
def backends_check_argvs(draw):
    """(argv, valid, circuits) for `backends-check`: each option absent, given
    once or repeated (the last one counts), with small valid, boundary (each
    option's own bounds and the ones next to them), large in-range, negative,
    huge and non-integer values.  When every value is valid the run is kept
    small by a last --circuits in 0..5 and --max-gates in 1..30, so a large
    valid value is never run; a value past a cap exits 2 before anything
    runs."""
    argv = ["backends-check"]
    last = {}
    for option in draw(st.lists(st.sampled_from(sorted(_BACKENDS_CHECK_OPTIONS)), max_size=6)):
        (low, high), valid_values = _BACKENDS_CHECK_OPTIONS[option]
        edges = [b + d for b in (low, high) if b is not None for d in (-1, 0, 1)]
        text = draw({
            "valid": valid_values.map(str),
            "boundary": st.sampled_from(["0", "1", "16", "17", *map(str, edges)]),
            "large": st.integers(low or 0, high or 1 << 70).map(str),
            "negative": st.integers(-(10 ** 30), -1).map(str),
            "huge": st.integers(10 ** 6, 10 ** 30).map(str),
            "text": st.sampled_from(["", "1.5", "two", "0x3", "2e1", "nan", " 3", "+2", "1_0"]),
        }[draw(st.sampled_from(["valid", "valid", "valid", "valid",
                                "boundary", "large", "negative", "huge", "text"]))])
        argv += [option, text]
        last[option] = text
    parsed = {option: _click_int(text, *_BACKENDS_CHECK_OPTIONS[option][0])
              for option, text in last.items()}
    valid = None not in parsed.values()
    circuits = parsed.get("--circuits", 200)
    if valid and circuits > 5:
        circuits = draw(st.integers(1, 5))
        argv += ["--circuits", str(circuits)]
    if valid and parsed.get("--max-gates", 40) > 30:
        argv += ["--max-gates", str(draw(st.integers(1, 30)))]
    return argv, valid, circuits


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(backends_check_argvs())
def test_backends_check_any_input_exits_0_or_2_without_traceback(drawn):
    argv, valid, circuits = drawn
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == (0 if valid else 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        assert f"\n{circuits} circuits, worst total variation " in result.output
        assert result.output.endswith("backends agree\n")
    else:
        assert "Error" in result.output
        assert "kernel backend" not in result.output and "backends agree" not in result.output


def _path_values(tmp_path):
    """(kind, text) of an output path: empty, a file under `tmp_path`, or a
    directory, which cannot be written as a file."""
    directory = tmp_path / "out-dir"
    directory.mkdir(exist_ok=True)
    return st.sampled_from([("empty", ""), ("file", str(tmp_path / "out.txt")),
                            ("file", str(tmp_path / "chart.csv")), ("directory", str(directory))])


# values of each `run` option: mostly valid, so that the command body is reached
_run_options = {
    "--family": st.sampled_from(["aqecc", "qoccc", "aqecc", "qoccc", "AQECC", "x"]),
    "--format": st.sampled_from(["json", "csv", "json", "csv", "xml"]),
    "--shots": st.one_of(
        st.integers(1, 4096).map(str), st.integers(1, 4096).map(str),
        st.sampled_from(["0", "1.5", "two", "", "1e3", "0x10"]),
        st.integers(-(10 ** 30), -1).map(str),
        st.integers(10 ** 6, 10 ** 30).map(lambda v: f"-{v}"),
        st.integers(MAX_SHOTS + 1, 10 ** 30).map(str),
    ),
    "--errors": st.one_of(
        st.lists(st.integers(-2, 32), max_size=5).map(lambda ps: ",".join(map(str, ps))),
        st.lists(st.integers(0, 3), min_size=2, max_size=4).map(lambda ps: f"{ps[0]},{ps[0]},"
                                                                        + ",".join(map(str, ps))),
        st.sampled_from(["", ",", "1,x", "1.5", "0, 1", "-1", "99"]),
    ),
    "--seed": st.one_of(st.integers(-(1 << 70), 1 << 70).map(str), st.sampled_from(["", "x", "1.0"])),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_any_input_exits_0_1_or_2_without_traceback(tmp_path, data):
    """Exit 1 only for a path that cannot be written, and exit 2 for any
    empty path or --shots past its cap; --shots is drawn at most 4096 when
    valid, so a huge value is never run."""
    argv = ["run", "--case", data.draw(st.sampled_from(["c1", "c2", "c3", "c4", "C2", "c9"]))]
    for option in data.draw(st.lists(st.sampled_from(sorted(_run_options)), max_size=5)):
        argv += [option, data.draw(_run_options[option])]
    paths = {}
    for option in data.draw(st.lists(st.sampled_from(["--out", "--emit-barchart"]), max_size=3)):
        paths[option], text = data.draw(_path_values(tmp_path))
        argv += [option, text]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.output
    if "empty" in paths.values():
        assert result.exit_code == 2, argv
    shots = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--shots"]
    if shots and shots[-1].isdigit() and int(shots[-1]) > MAX_SHOTS:
        assert result.exit_code == 2, argv
    if result.exit_code == 1:
        assert "directory" in paths.values(), argv
        assert "cannot write" in result.output
    elif result.exit_code == 2:
        assert "Error" in result.output


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_export_code_any_input_exits_0_1_or_2_without_traceback(tmp_path, data):
    case = data.draw(st.sampled_from(["c1", "c2", "c3", "c4", "C4", "c9", ""]))
    argv = ["export-code", "--case", case]
    kind = None
    if data.draw(st.booleans()):
        kind, text = data.draw(_path_values(tmp_path))
        argv += ["--out", text]
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    valid_case = case.lower() in ("c1", "c2", "c3", "c4")
    expected = {None: 0, "file": 0, "empty": 2, "directory": 1}[kind] if valid_case else 2
    assert result.exit_code == expected, (argv, result.output)
    if expected == 0 and kind is None:
        assert json.loads(result.output)["m"] == CaseId.parse(case).m_physical
