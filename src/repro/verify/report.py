"""Verification report: JSON artifact + human-readable table.

The CLI (``python -m repro.verify``) aggregates every convergence study
into one :class:`VerificationReport`.  CI uploads the JSON as an artifact
(so a failed run carries its full evidence) and prints the table; the exit
code is the single-bit summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.verify.convergence import StudyResult

__all__ = ["VerificationReport"]


@dataclass
class VerificationReport:
    """All verification outcomes of one run."""

    studies: list[StudyResult] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.studies)

    def as_record(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "studies": [s.as_record() for s in self.studies],
            **({"extra": self.extra} if self.extra else {}),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_record(), indent=indent, sort_keys=False)

    def text_table(self) -> str:
        """Fixed-width summary table of every study."""
        lines: list[str] = []
        if self.studies:
            lines.append("convergence studies")
            lines.append(
                f"  {'name':<38} {'kind':<4} {'observed':>9} {'expected':>9}  verdict"
            )
            for s in self.studies:
                verdict = "PASS" if s.passed else "FAIL"
                lines.append(
                    f"  {s.name:<38} {s.kind:<4} {s.observed_rate:>9.3f} "
                    f"{s.expected_rate:>9.3f}  {verdict}"
                )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
