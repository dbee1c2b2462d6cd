"""determinism: no unseeded randomness, no wall-clock reads in numerics.

Reproducible DNS means a run is a pure function of its configuration:
the same case file must produce the same trajectory, checkpoints and
statistics.  Two things silently break that:

* **unseeded randomness** -- the legacy ``np.random.*`` module functions
  draw from hidden global state, and ``np.random.default_rng()`` without
  a seed is fresh entropy per construction;
* **wall-clock reads** -- ``time.time()`` / ``datetime.now()`` leak the
  scheduling of the run into its results.  Durations belong to
  ``time.perf_counter`` (timers/tracers), and anything that *decides*
  based on time must take an injectable clock, the pattern the
  resilience and observability layers established.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.engine import ModuleContext
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules.base import Rule, attr_chain

__all__ = ["DeterminismRule"]

#: Wall-clock calls (dotted suffixes matched against the full chain).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
}


class DeterminismRule(Rule):
    name = "determinism"
    severity = Severity.ERROR
    description = (
        "no unseeded np.random.* / random.* and no wall-clock reads "
        "(time.time, datetime.now) -- seeded generators and injectable clocks only"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            yield from self._check_call(ctx, node, chain)

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call, chain: str
    ) -> Iterator[Finding]:
        parts = chain.split(".")
        root = parts[0]

        # numpy global-state RNG: np.random.rand(...) and friends.
        if root in ("np", "numpy") and len(parts) >= 3 and parts[1] == "random":
            if parts[2] in ("default_rng", "Generator", "SeedSequence"):
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self,
                        node,
                        f"`{chain}()` without a seed draws fresh OS entropy; "
                        f"pass an explicit seed (e.g. `default_rng(seed)`)",
                    )
            else:
                yield ctx.finding(
                    self,
                    node,
                    f"`{chain}()` uses the hidden global RNG; construct a seeded "
                    f"`np.random.default_rng(seed)` and thread it through",
                )
            return

        # stdlib `random` module: global RNG, or unseeded Random().
        if root == "random" and len(parts) == 2:
            if parts[1] == "Random":
                if not node.args:
                    yield ctx.finding(
                        self, node, "`random.Random()` without a seed; pass one"
                    )
            else:
                yield ctx.finding(
                    self,
                    node,
                    f"`{chain}()` uses the global stdlib RNG; use a seeded "
                    f"`random.Random(seed)` or numpy `default_rng(seed)`",
                )
            return

        # Wall-clock reads.
        if chain in _WALL_CLOCK or any(chain.endswith("." + w) for w in _WALL_CLOCK):
            yield ctx.finding(
                self,
                node,
                f"`{chain}()` reads the wall clock; numerics must be a pure "
                f"function of the configuration -- inject a clock "
                f"(`clock=time.perf_counter`-style parameter) instead",
            )
