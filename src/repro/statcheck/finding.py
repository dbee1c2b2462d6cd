"""Finding and severity types shared by the statcheck engine and rules.

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """Finding severity; ordering is by increasing seriousness."""

    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.name.lower() for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative POSIX path
    line: int  # 1-based
    col: int  # 0-based, as reported by ast
    message: str
    severity: Severity = Severity.WARNING

    def render(self) -> str:
        """``path:line:col: severity [rule] message`` (editor-clickable)."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.severity.name.lower()} [{self.rule}] {self.message}"
        )

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity.name.lower(),
        }
