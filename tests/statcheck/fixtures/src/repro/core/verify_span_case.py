"""Fixture: the verification span family is registered.

Every literal name here belongs to the ``verify.`` prefix family added to
the phase registry by the verification subsystem, so the span-hygiene rule
must produce zero findings for this module.  Linted by tests, never
imported.
"""


def run(tracer, study):
    with tracer.span("verify.study", study=study):  # registered verify.* span
        with tracer.span("verify.case", parameter=8):  # registered verify.* span
            pass
    with tracer.span("verify.equivalence", chain="gs_add"):  # registered verify.* span
        pass
