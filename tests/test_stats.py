"""Statistics tests, cross-checked with an independent two-pass oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgqec import stats, tables
from qgqec.cases import CaseId
from qgqec.circuits import Counts, parse_count_rows


def two_pass_mean_var(values):
    mu = sum(values) / len(values)
    var = sum((v - mu) ** 2 for v in values) / len(values)
    return mu, var


def test_mean_examples():
    assert stats.mean_counts(tables.get_table("t1").rows()) == pytest.approx(3.2, abs=1e-12)
    assert stats.mean_counts(tables.get_table("t4").rows()) == pytest.approx(5.1, abs=1e-12)
    assert stats.mean_counts([("x", 7)]) == 7.0
    with pytest.raises(ValueError):
        stats.mean_counts([])


def test_variance_examples():
    assert stats.variance_counts([("a", 4), ("b", 4), ("c", 4)]) == 0.0
    assert stats.variance_counts(tables.get_table("t1").rows()) == pytest.approx(2.76, abs=1e-12)
    assert stats.variance_counts(tables.get_table("t3").rows()) == pytest.approx(4.24, abs=1e-12)
    with pytest.raises(ValueError):
        stats.variance_counts([])


def test_mean_variance_against_oracle_random_vectors():
    rnd = random.Random(12)
    for _ in range(1000):
        values = [rnd.randint(0, 50) for _ in range(rnd.randint(1, 30))]
        rows = [(f"o{i}", v) for i, v in enumerate(values)]
        mu, var = two_pass_mean_var(values)
        assert abs(stats.mean_counts(rows) - mu) < 1e-12
        assert abs(stats.variance_counts(rows) - var) < 1e-12


def test_error_rate_examples():
    rows = [("ok", 3), ("bad", 1)]
    assert stats.error_rate(rows, lambda o, c: o == "bad") == 25.0
    assert stats.error_rate(rows, lambda o, c: False) == 0.0
    t1 = tables.get_table("t1").rows()
    assert stats.error_rate(t1, stats.argmax_classifier(t1)) == pytest.approx(
        100 * (32 - 7) / 32, abs=1e-12
    )
    with pytest.raises(ValueError):
        stats.error_rate([("a", 0)], lambda o, c: True)


def test_argmax_classifier_is_row_level():
    # duplicated outcome with different counts: only the max-count row is correct
    t3 = tables.get_table("t3").rows()
    eta = stats.error_rate(t3, stats.argmax_classifier(t3))
    assert eta == pytest.approx(100 * (36 - 14) / 36, abs=1e-12)


def test_error_rate_invariances():
    rnd = random.Random(4)
    for _ in range(50):
        rows = [(f"o{i}", rnd.randint(0, 9)) for i in range(rnd.randint(2, 12))]
        if sum(v for _, v in rows) == 0:
            continue
        eta = stats.error_rate(rows, stats.argmax_classifier(rows))
        relabeled = [(f"x{i}", v) for i, (_, v) in enumerate(rows)]
        assert stats.error_rate(relabeled, stats.argmax_classifier(relabeled)) == eta
        scaled = [(o, 3 * v) for o, v in rows]
        assert stats.error_rate(scaled, stats.argmax_classifier(scaled)) == eta
        assert stats.mean_counts(scaled) == pytest.approx(3 * stats.mean_counts(rows))
        assert 0.0 <= eta <= 100.0


def test_counts_object_input():
    counts = Counts({"00": 6, "11": 2})
    assert stats.mean_counts(counts) == 4.0
    assert stats.variance_counts(counts) == 4.0
    assert stats.error_rate(counts, lambda o, c: o == "11") == 25.0


def test_negative_counts_rejected():
    with pytest.raises(ValueError, match="negative count"):
        parse_count_rows('outcome,count\n"00",5\n"01",-1\n')
    with pytest.raises(ValueError, match="negative count"):
        Counts({"00": 5, "01": -3})
    with pytest.raises(ValueError, match="negative count"):
        Counts({"00": 5, "01": -1}, 4)
    assert parse_count_rows('"00",0\n"01",3\n') == [("00", 0), ("01", 3)]


# counts that int() would coerce or pass through: floats (integral ones too),
# bools, digit strings (underscores, signs and non-ASCII digits included) and
# negative ints
NOT_A_COUNT = st.one_of(
    st.floats(allow_nan=False),
    st.booleans(),
    st.from_regex(r"\A[+-]?[0-9]+(_[0-9]+)?\Z"),
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3),
    st.integers(max_value=-1),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 50), max_size=6), NOT_A_COUNT, st.integers(0, 6))
def test_row_counts_must_be_non_negative_ints(counts, bad, at):
    """A row count that is not a non-negative int raises ValueError in every
    statistic instead of being coerced: int() would read 2.9 as 2, True as
    1, '1_0' as 10 and a non-ASCII digit as its value, and keep negatives."""
    rows = [(f"o{i}", v) for i, v in enumerate(counts)]
    rows.insert(min(at, len(rows)), ("bad", bad))
    for statistic in (stats.as_rows, stats.mean_counts, stats.variance_counts,
                      stats.argmax_classifier, lambda r: stats.summarize(r, lambda o, c: False)):
        with pytest.raises(ValueError, match="non-negative integer"):
            statistic(rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 50), max_size=6), NOT_A_COUNT, st.integers(0, 6))
def test_counts_refuse_non_int_counts(counts, bad, at):
    """A Counts count that is not a non-negative int raises ValueError, as
    in ``stats.as_rows``, wherever it sits among good counts."""
    items = [(format(i, "03b"), v) for i, v in enumerate(counts)]
    items.insert(min(at, len(items)), ("111", bad))
    with pytest.raises(ValueError, match="non-negative integer|negative count"):
        Counts(dict(items))


def test_counts_refuse_non_int_total_shots():
    for table, total in (({"00": 1, "01": 1}, 2.0), ({"00": 1}, True),
                         ({"00": 2}, "2"), ({"00": 2}, None)):
        with pytest.raises(ValueError, match="total_shots must be an integer"):
            Counts(table, total)
    assert Counts({"00": 1, "01": 1}, 2).total_shots == 2


def test_summary_of_fractional_counts_is_refused():
    with pytest.raises(ValueError):
        stats.summarize([("00", 3.9), ("01", 1)], lambda o, c: False)
    # the Counts constructor refuses them before any statistic sees them
    for table in ({"00": 2.5, "01": 1.5}, {"00": True, "01": 2}):
        with pytest.raises(ValueError, match="non-negative integer"):
            Counts(table)
    summary = stats.summarize([("00", 3), ("01", 1)], lambda o, c: o == "01")
    assert (summary.mean, summary.total_counts, summary.error_rate_percent) == (2.0, 4, 25.0)


def test_summary_validation():
    with pytest.raises(ValueError):
        stats.StatsSummary(1.0, -0.5, 10.0, 2, 10)
    with pytest.raises(ValueError):
        stats.StatsSummary(1.0, 0.5, 120.0, 2, 10)


def test_reference_tables_ingested():
    ref = tables.reference_for("t5", "GT")
    assert ref == {"P": 1, "mean": 10.0, "variance": 3.25, "error_rate": 83.75}
    ref_qc = tables.reference_for("t5", "QC")
    assert ref_qc["variance"] == 6.0 and ref_qc["error_rate"] == 77.50
    ref_t1 = tables.reference_for("t1")
    assert ref_t1 == {"P": 1, "mean": 3.2, "variance": 1.16, "error_rate": 68.75}
    with pytest.raises(ValueError):
        tables.reference_for("t5")  # needs a column
    with pytest.raises(ValueError):
        tables.get_table("t11")


def test_reference_capability_is_the_case_capability():
    """The P entries of Tables 9 and 10 stay verbatim, and each equals the
    capability (d - 1) // 2 of its case record."""
    for case in CaseId:
        assert tables.REFERENCE_QOCCC[case.name]["P"] == case.capability
        for column in ("GT", "QC"):
            assert tables.REFERENCE_AQECC[case.name][column]["P"] == case.capability


def test_paper_table_shapes():
    assert len(tables.get_table("t1").rows()) == 10
    assert len(tables.get_table("t6").rows("QC")) == 16
    assert sum(v for _, v in tables.get_table("t5").rows("QC")) == 80
    # the paper's t6 GT column genuinely sums to 81; kept verbatim
    assert sum(v for _, v in tables.get_table("t6").rows("GT")) == 81
    with pytest.raises(ValueError):
        tables.get_table("t5").rows()  # ambiguous column
