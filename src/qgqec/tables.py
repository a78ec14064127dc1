"""Embedded reference counts tables (keyed t1..t8) and the Table 9/10
reference statistics rows.

Rows are kept verbatim, duplicates and all: two of the listed tables repeat
outcome strings with different counts, one outcome string is a character
short of its register width, and one column sums to 81 over 16 rows.  The
reference-comparison machinery reports such mismatches instead of repairing
them.
"""

from __future__ import annotations

from dataclasses import dataclass

Row = tuple[str, int]


@dataclass(frozen=True)
class PaperTable:
    table_id: str
    case: str
    family: str
    columns: dict[str, tuple[Row, ...]]

    def rows(self, column: str | None = None) -> tuple[Row, ...]:
        if column is None:
            if len(self.columns) != 1:
                raise ValueError(
                    f"{self.table_id} has columns {sorted(self.columns)}; pick one"
                )
            return next(iter(self.columns.values()))
        try:
            return self.columns[column.upper()] if column.upper() in self.columns else self.columns[column]
        except KeyError:
            raise ValueError(
                f"{self.table_id} has no column {column!r} (has {sorted(self.columns)})"
            ) from None


COUNT_TABLES: dict[str, PaperTable] = {
    "t1": PaperTable(
        "t1",
        "C1",
        "qoccc",
        {
            "counts": (
                ("00010001", 1),
                ("00001001", 3),
                ("11110001", 7),
                ("11100100", 2),
                ("00000111", 5),
                ("00001001", 3),
                ("10010001", 2),
                ("11100100", 2),
                ("01000000", 4),
                ("10110101", 3),
            )
        },
    ),
    "t2": PaperTable(
        "t2",
        "C2",
        "qoccc",
        {
            "counts": (
                ("0001000101", 1),
                ("0000100101", 3),
                ("1111000101", 7),
                ("1110010001", 2),
                ("0000011101", 5),
                ("0000100101", 3),
                ("1001000101", 2),
                ("1110010001", 2),
                ("0100000010", 4),
                ("1011010101", 3),
            )
        },
    ),
    "t3": PaperTable(
        "t3",
        "C3",
        "qoccc",
        {
            "counts": (
                ("0001000100010", 1),
                ("0000100100001", 3),
                ("1111000100011", 7),
                ("1110010001100", 7),
                ("0000011100000", 5),
                ("0000100100001", 3),
                ("1001000100010", 2),
                ("1110010001100", 1),
                ("0100000010001", 4),
                ("1011010111011", 3),
            )
        },
    ),
    "t4": PaperTable(
        "t4",
        "C4",
        "qoccc",
        {
            "counts": (
                ("00010001000101100101101010011", 1),
                ("00001001000011101000100111000", 3),
                ("11110001000110100001011110011", 7),
                ("11100100011011111010001111110", 7),
                ("00000111000010110110111011001", 5),
                ("00001001000011101000100111000", 3),
                ("10010001000101110001110101111", 7),
                ("1100100011011111010001111110", 7),
                ("01000000100000001000010100000", 4),
                ("10110101110101111111111111010", 7),
            )
        },
    ),
    "t5": PaperTable(
        "t5",
        "C1",
        "aqecc",
        {
            "QC": (
                ("00000100", 6),
                ("00000001", 8),
                ("00000101", 5),
                ("00000010", 5),
                ("00000000", 18),
                ("00000111", 11),
                ("00000011", 16),
                ("00000110", 11),
            ),
            "GT": (
                ("00000100", 7),
                ("00000001", 13),
                ("00000101", 11),
                ("00000010", 11),
                ("00000000", 11),
                ("00000111", 9),
                ("00000011", 10),
                ("00000110", 8),
            ),
        },
    ),
    "t6": PaperTable(
        "t6",
        "C2",
        "aqecc",
        {
            "QC": (
                ("0000000010", 2),
                ("0000001101", 4),
                ("0000001111", 5),
                ("0000001100", 9),
                ("0000000011", 6),
                ("0000000111", 4),
                ("0000001011", 5),
                ("0000001001", 4),
                ("0000000101", 4),
                ("0000001110", 5),
                ("0000001000", 5),
                ("0000000110", 6),
                ("0000001010", 8),
                ("0000000000", 4),
                ("0000000100", 5),
                ("0000000001", 4),
            ),
            "GT": (
                ("0000000010", 8),
                ("0000001101", 9),
                ("0000001111", 5),
                ("0000001100", 10),
                ("0000000011", 4),
                ("0000000111", 3),
                ("0000001011", 2),
                ("0000001001", 6),
                ("0000000101", 2),
                ("0000001110", 5),
                ("0000001000", 3),
                ("0000000110", 9),
                ("0000001010", 3),
                ("0000000000", 5),
                ("0000000100", 5),
                ("0000000001", 2),
            ),
        },
    ),
    "t7": PaperTable(
        "t7",
        "C3",
        "aqecc",
        {
            "QC": (("0000000000000", 36), ("0000000000001", 44)),
            "GT": (("0000000000000", 32), ("0000000000001", 48)),
        },
    ),
    "t8": PaperTable(
        "t8",
        "C4",
        "aqecc",
        {
            "QC": (
                ("00000000000000000000000000000", 38),
                ("00000000000000000000000000001", 42),
            ),
            "GT": (
                ("00000000000000000000000000000", 48),
                ("00000000000000000000000000001", 32),
            ),
        },
    ),
}

# Table 9: QOCCC-family mean / variance / error-rate reference rows.
REFERENCE_QOCCC: dict[str, dict[str, float]] = {
    "C1": {"P": 1, "mean": 3.2, "variance": 1.16, "error_rate": 68.75},
    "C2": {"P": 1, "mean": 3.2, "variance": 1.16, "error_rate": 68.75},
    "C3": {"P": 2, "mean": 3.6, "variance": 3.84, "error_rate": 61.11},
    "C4": {"P": 5, "mean": 5.1, "variance": 3.29, "error_rate": 29.41},
}

# Table 10: AQECC-family reference rows, per GT/QC column.
REFERENCE_AQECC: dict[str, dict[str, dict[str, float]]] = {
    "C1": {
        "GT": {"P": 1, "mean": 10.0, "variance": 3.25, "error_rate": 83.75},
        "QC": {"P": 1, "mean": 10.0, "variance": 6.0, "error_rate": 77.50},
    },
    "C2": {
        "GT": {"P": 1, "mean": 5.0, "variance": 3.5, "error_rate": 87.50},
        "QC": {"P": 1, "mean": 5.0, "variance": 3.25, "error_rate": 88.75},
    },
    "C3": {
        "GT": {"P": 2, "mean": 40.0, "variance": 32.0, "error_rate": 40.00},
        "QC": {"P": 2, "mean": 40.0, "variance": 16.0, "error_rate": 45.00},
    },
    "C4": {
        "GT": {"P": 5, "mean": 40.0, "variance": 32.0, "error_rate": 40.00},
        "QC": {"P": 5, "mean": 40.0, "variance": 2.0, "error_rate": 47.50},
    },
}


def table_ids() -> list[str]:
    return sorted(COUNT_TABLES)


def get_table(table_id: str) -> PaperTable:
    try:
        return COUNT_TABLES[table_id.lower()]
    except KeyError:
        raise ValueError(
            f"unknown table {table_id!r}; counts tables are {table_ids()}"
        ) from None


def reference_for(table_id: str, column: str | None = None) -> dict[str, float]:
    """The Table 9/10 reference row matching a counts table (and column)."""
    table = get_table(table_id)
    if table.family == "qoccc":
        return dict(REFERENCE_QOCCC[table.case])
    if column is None:
        raise ValueError(f"{table.table_id} needs a column (QC or GT) for its reference")
    col = column.upper()
    if col not in ("QC", "GT"):
        raise ValueError("column must be QC or GT")
    return dict(REFERENCE_AQECC[table.case][col])
