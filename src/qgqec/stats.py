"""Counts statistics: error rate, mean and population variance.

Functions accept a Counts object or an explicit row list of (outcome,
count) pairs.  Row lists may contain duplicate outcome strings;
paper tables are ingested that way verbatim, and the mean deliberately
divides by the number of rows as listed.
"""

from __future__ import annotations

from dataclasses import dataclass

from qgqec.circuits import Counts

Row = tuple[str, int]


def as_rows(c) -> list[Row]:
    """The (outcome, count) rows of a Counts object (sorted by outcome) or
    of a row list (as listed).  A count must be a non-negative int, as in
    ``Counts.from_json`` and ``parse_count_rows``: anything else (a float,
    a bool, a digit string) raises ValueError rather than being coerced."""
    rows = sorted(c.counts.items()) if isinstance(c, Counts) else [(str(o), v) for o, v in c]
    for o, v in rows:
        if type(v) is not int or v < 0:  # bool is an int subclass
            raise ValueError(f"count of {o!r} must be a non-negative integer, got {v!r}")
    return rows


@dataclass(frozen=True)
class StatsSummary:
    mean: float
    variance: float
    error_rate_percent: float
    num_outcomes: int
    total_counts: int

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be >= 0")
        if not 0.0 <= self.error_rate_percent <= 100.0:
            raise ValueError("error rate must lie in [0, 100]")

    def to_dict(self) -> dict:
        return {"mean": self.mean, "variance": self.variance,
                "error_rate_percent": self.error_rate_percent,
                "num_outcomes": self.num_outcomes, "total_counts": self.total_counts}


def mean_counts(c) -> float:
    """(sum of counts) / (number of listed outcomes)."""
    return _mean(as_rows(c))


def _mean(rows: list[Row]) -> float:
    if not rows:
        raise ValueError("no counts")
    return sum(v for _, v in rows) / len(rows)


def variance_counts(c) -> float:
    """Population variance of the listed counts."""
    return _variance(as_rows(c))


def _variance(rows: list[Row]) -> float:
    mu = _mean(rows)
    return sum((v - mu) ** 2 for _, v in rows) / len(rows)


def error_rate(c, is_error) -> float:
    """100 x (counts classified as errors) / (all counts).

    is_error is called per row as is_error(outcome, count); the classifier
    must cover every row.
    """
    return _error_rate(as_rows(c), is_error)


def _error_rate(rows: list[Row], is_error) -> float:
    total = sum(v for _, v in rows)
    if total == 0:
        raise ValueError("zero total counts")
    bad = sum(v for o, v in rows if is_error(o, v))
    return 100.0 * bad / total


def argmax_classifier(c):
    """Row-level classifier: a row is an error iff its count is below the
    maximum count in the table."""
    rows = as_rows(c)
    if not rows:
        raise ValueError("no counts")
    top = max(v for _, v in rows)
    return lambda outcome, count: count < top


def summarize(c, is_error) -> StatsSummary:
    """Mean, variance, error rate and totals of one table.  The rows are
    validated once (``as_rows``); each statistic is then the public
    function's arithmetic on that list, so the floats and the errors (no
    rows, then a zero total) are the ones ``mean_counts``,
    ``variance_counts`` and ``error_rate`` give."""
    rows = as_rows(c)
    return StatsSummary(
        mean=_mean(rows),
        variance=_variance(rows),
        error_rate_percent=_error_rate(rows, is_error),
        num_outcomes=len(rows),
        total_counts=sum(v for _, v in rows),
    )
