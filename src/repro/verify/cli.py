"""``python -m repro.verify``: run the verification suite, emit the report.

``--quick`` runs the CI-sized suite (a couple of minutes on one core):
p-convergence of Poisson/Helmholtz on affine and deformed meshes up to
``lx = 8``, h-convergence at ``lx = 4``, BDFk/EXTk temporal order for
``k = 1..3`` on the scalar problem plus the coupled Boussinesq step at
``k = 2``.  The full suite extends the sweeps (``lx = 10``, five mesh
sizes, coupled ``k = 1..3``).

Exit status 0 iff every study passed; the JSON report always lands at
``--out`` so a red CI run still uploads its evidence.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.observability.tracer import Tracer
from repro.verify.convergence import ConvergenceStudy
from repro.verify.manufactured import trig_mms
from repro.verify.problems import (
    BoussinesqTemporalMMSProblem,
    ScalarTemporalMMSProblem,
    deformed_box_space,
    solve_helmholtz_mms,
    solve_poisson_mms,
    unit_box_space,
)
from repro.verify.report import VerificationReport

__all__ = ["build_report", "main"]

#: Minimum exponential decay rate asserted for p-refinement (calibrated:
#: the implementation observes ~2.8 on both affine and deformed meshes).
MIN_SPECTRAL_RATE = 2.0

#: Temporal-order tolerance: assert ``observed >= k - 0.2``.
TEMPORAL_MARGIN = 0.2

#: (velocity, temperature) floors of the coupled step per order ``k``, a tenth
#: below the calibrated slopes (1.02 / 1.00, 1.96 / 1.76, 0.69 / 2.95), so that
#: a quarter-order loss in the Helmholtz solves or their initial guess fails
#: the gate.  The incremental pressure-correction splitting caps the velocity
#: at second order and at ``k = 3`` -- ``CaseConfig.time_order``'s default --
#: leaves it below first (see EXPERIMENTS.md).
COUPLED_FLOORS = {1: (0.9, 0.9), 2: (1.85, 1.65), 3: (0.59, 2.85)}


def build_report(quick: bool = True, tracer: Tracer | None = None) -> VerificationReport:
    """Assemble and run the suite; ``quick`` trims the sweeps to CI size."""
    report = VerificationReport()
    mms = trig_mms()

    p_orders = list(range(3, 9)) if quick else list(range(3, 11))
    h_elems = (1, 2, 3, 4) if quick else (1, 2, 3, 4, 5)

    def poisson_affine(lx: float) -> float:
        return solve_poisson_mms(unit_box_space(2, int(lx)), mms).error

    def poisson_deformed(lx: float) -> float:
        return solve_poisson_mms(deformed_box_space(2, int(lx)), mms).error

    def helmholtz_affine(lx: float) -> float:
        return solve_helmholtz_mms(unit_box_space(2, int(lx)), mms).error

    def helmholtz_deformed(lx: float) -> float:
        return solve_helmholtz_mms(deformed_box_space(2, int(lx)), mms).error

    p_cases: list[tuple[str, Callable[[float], float]]] = [
        ("poisson-p-affine", poisson_affine),
        ("poisson-p-deformed", poisson_deformed),
        ("helmholtz-p-affine", helmholtz_affine),
        ("helmholtz-p-deformed", helmholtz_deformed),
    ]
    for name, case in p_cases:
        study = ConvergenceStudy(name, case, kind="p", tracer=tracer)
        report.studies.append(study.run(p_orders, MIN_SPECTRAL_RATE))

    h_lx = 4

    def poisson_h(h: float) -> float:
        return solve_poisson_mms(unit_box_space(round(1.0 / h), h_lx), mms).error

    study = ConvergenceStudy("poisson-h-lx4", poisson_h, kind="h", tracer=tracer)
    report.studies.append(study.run([1.0 / n for n in h_elems], h_lx - 0.5))

    # Temporal order: scalar advection--diffusion at every supported order.
    dts = [0.01, 0.005, 0.0025]
    scalar_problem = ScalarTemporalMMSProblem()
    for order in (1, 2, 3):
        def scalar_case(dt: float, _order: int = order) -> float:
            return scalar_problem.run(_order, dt)

        study = ConvergenceStudy(
            f"scalar-dt-bdf{order}", scalar_case, kind="dt", tracer=tracer
        )
        report.studies.append(study.run(dts, order - TEMPORAL_MARGIN))

    # Coupled Boussinesq step, every order held to its calibrated floors.
    coupled_orders = (2,) if quick else (1, 2, 3)
    coupled_dts = dts[:2] if quick else dts
    coupled = BoussinesqTemporalMMSProblem()
    for order in coupled_orders:
        errs = [coupled.run(order, dt) for dt in coupled_dts]

        def vel_case(dt: float, _errs: list[tuple[float, float]] = errs) -> float:
            return _errs[coupled_dts.index(dt)][0]

        def temp_case(dt: float, _errs: list[tuple[float, float]] = errs) -> float:
            return _errs[coupled_dts.index(dt)][1]

        vel_expected, temp_expected = COUPLED_FLOORS[order]
        study = ConvergenceStudy(
            f"boussinesq-dt-bdf{order}-velocity", vel_case, kind="dt", tracer=tracer
        )
        report.studies.append(study.run(coupled_dts, vel_expected))
        study = ConvergenceStudy(
            f"boussinesq-dt-bdf{order}-temperature", temp_case, kind="dt", tracer=tracer
        )
        report.studies.append(study.run(coupled_dts, temp_expected))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Run the verification suite (manufactured solutions, "
        "convergence orders).",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized sweeps (default: full)"
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report to this path"
    )
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    sys.stdout.write(report.text_table() + "\n")
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
