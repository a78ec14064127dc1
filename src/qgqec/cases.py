"""The four qubit-mapping cases and their [n, k, d] presets."""

from __future__ import annotations

from enum import Enum

FAMILIES = ("qoccc", "aqecc")  # labels only: both run the same circuit


class CaseId(Enum):
    """C1..C4: (logical N, physical M, distance d); capability P = (d-1)//2."""

    C1 = (3, 8, 3)
    C2 = (4, 10, 3)
    C3 = (1, 13, 5)
    C4 = (1, 29, 11)

    @property
    def n_logical(self) -> int:
        return self.value[0]

    @property
    def m_physical(self) -> int:
        return self.value[1]

    @property
    def distance(self) -> int:
        return self.value[2]

    @property
    def capability(self) -> int:
        return (self.distance - 1) // 2

    @classmethod
    def parse(cls, text: "str | CaseId") -> "CaseId":
        """A case name such as 'c1' or 'C1'; a CaseId is returned as is."""
        if isinstance(text, cls):
            return text
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown case {text!r}; expected one of C1..C4") from None
