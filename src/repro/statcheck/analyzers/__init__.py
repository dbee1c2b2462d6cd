"""Interprocedural analyzers built on the call graph.

One analyzer, hot-loop-allocation; see its module for the rationale.
"""

from __future__ import annotations

from repro.statcheck.analyzers.allocations import HotLoopAllocationAnalyzer
from repro.statcheck.analyzers.base import Analyzer

__all__ = [
    "ALL_ANALYZERS",
    "Analyzer",
    "HotLoopAllocationAnalyzer",
    "get_analyzers",
]

#: CLI keyword -> analyzer class ("all" expands to every entry, in order).
ALL_ANALYZERS: dict[str, type[Analyzer]] = {
    "allocations": HotLoopAllocationAnalyzer,
}


def get_analyzers(selection: str | list[str] | None) -> list[Analyzer]:
    """Resolve an ``--analysis`` selection into analyzer instances."""
    if selection is None:
        return []
    names = [selection] if isinstance(selection, str) else list(selection)
    if "all" in names:
        names = list(ALL_ANALYZERS)
    unknown = [n for n in names if n not in ALL_ANALYZERS]
    if unknown:
        raise ValueError(
            f"unknown analysis {unknown}; available: {sorted(ALL_ANALYZERS)} or 'all'"
        )
    seen: list[str] = []
    for n in names:
        if n not in seen:
            seen.append(n)
    return [ALL_ANALYZERS[n]() for n in seen]
