"""Fixture: warning-level findings, one of them suppressed.  Linted by tests, never imported.

Shared by the suppression-grammar, baseline-drift and severity-gating
tests: two span-hygiene findings and a third that carries an inline ignore.
"""


def run(tracer):
    with tracer.span("warmup_phase"):  # finding 1: not in the phase registry
        pass
    with tracer.span("cooldown_phase"):  # finding 2: not in the phase registry
        pass
    with tracer.span("scratch_phase"):  # statcheck: ignore[span-hygiene] -- fixture keep
        pass


def registered(tracer):
    with tracer.span("pressure"):  # registered Fig. 4 phase: allowed
        pass
