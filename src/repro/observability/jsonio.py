"""Strict-JSON serialization of telemetry records.

Python's ``json`` module happily emits ``NaN`` / ``Infinity`` literals,
which are *not* JSON: a span counter or step result that saw a NaN (a
diverging residual) silently produces a file ``jq``, browsers and most
other parsers reject.  The Chrome-trace exporter therefore funnels its
payload through :func:`sanitize` before writing:

* ``NaN`` becomes ``None`` (JSON ``null``) -- the value for "no data",
  matching how dashboards want to render a gap;
* ``+inf`` / ``-inf`` become the strings ``"Infinity"`` / ``"-Infinity"``
  -- unlike NaN they carry sign information worth keeping, and a string
  survives a strict round trip;
* numpy scalars are coerced to their Python equivalents so a record built
  from array arithmetic serializes like one built from floats.

:func:`dumps` applies the policy and serializes with
``allow_nan=False``, so a non-finite value that slipped past the
sanitizer fails loudly instead of producing invalid output.
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = ["sanitize", "dumps", "POS_INF", "NEG_INF"]

#: Strict-JSON stand-ins for the signed infinities.
POS_INF = "Infinity"
NEG_INF = "-Infinity"


def sanitize(value: Any) -> Any:
    """Recursively convert ``value`` into a strict-JSON-serializable tree.

    Dict keys are coerced to ``str``; tuples and sets become lists.  Any
    leaf that is not a JSON primitive after numeric coercion is replaced
    by its ``repr`` -- telemetry must serialize, never raise.
    """
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return POS_INF if value > 0 else NEG_INF
        return value
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [sanitize(v) for v in value]
    # numpy scalars (and anything else float-like or int-like).
    for caster in (int, float):
        try:
            return sanitize(caster(value))
        except (TypeError, ValueError, OverflowError):
            continue
    return repr(value)


def dumps(value: Any, **kwargs: Any) -> str:
    """``json.dumps`` of the sanitized tree, strict (``allow_nan=False``)."""
    return json.dumps(sanitize(value), allow_nan=False, **kwargs)
