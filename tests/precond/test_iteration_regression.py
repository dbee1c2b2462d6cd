"""Iteration-count regression bands for the preconditioner stack.

Preconditioner strength regresses silently: the solve still converges,
just slower, and nothing fails until someone profiles.  These tests pin
the CG iteration counts of every preconditioner on a fixed
deformed-mesh Poisson problem (seeded geometry, fixed tolerance) inside
+-15% tolerance bands.

Reference counts on the fixed problem
(deformed 3^3 box, lx = 6, amplitude 0.08, seed 42, tol 1e-10):

    none 131,  jacobi 108,  schwarz 63,  hsmg 55

The ordering none > jacobi > schwarz >= hsmg is itself asserted --
that hierarchy is the entire point of the preconditioner stack.
"""

import pytest

from repro.verify.manufactured import trig_mms
from repro.verify.problems import (
    deformed_box_space,
    solve_poisson_mms_preconditioned,
)

#: (preconditioner, measured iterations) on the fixed problem below.
REFERENCE_ITERATIONS = {
    "none": 131,
    "jacobi": 108,
    "schwarz": 63,
    "hsmg": 55,
}
BAND = 0.15
TOL = 1e-10


@pytest.fixture(scope="module")
def results():
    space = deformed_box_space(3, 6, amplitude=0.08, seed=42)
    mms = trig_mms()
    return {
        name: solve_poisson_mms_preconditioned(space, mms, name, tol=TOL)
        for name in REFERENCE_ITERATIONS
    }


class TestIterationRegression:
    @pytest.mark.parametrize("name", sorted(REFERENCE_ITERATIONS))
    def test_count_within_band(self, results, name):
        res = results[name]
        assert res.converged, f"{name}: solve did not converge"
        ref = REFERENCE_ITERATIONS[name]
        lo, hi = int(ref * (1 - BAND)), int(ref * (1 + BAND)) + 1
        assert lo <= res.iterations <= hi, (
            f"{name}: {res.iterations} iterations, reference {ref} "
            f"(band [{lo}, {hi}]) -- preconditioner strength changed"
        )

    @pytest.mark.parametrize("name", sorted(REFERENCE_ITERATIONS))
    def test_preconditioned_solution_is_correct(self, results, name):
        # Iteration counts alone can be gamed by a wrong operator; every
        # preconditioned solve must still hit the manufactured solution.
        assert results[name].error < 1e-5

    def test_preconditioner_hierarchy(self, results):
        it = {name: results[name].iterations for name in REFERENCE_ITERATIONS}
        assert it["jacobi"] < it["none"]
        assert it["schwarz"] < it["jacobi"]
        assert it["hsmg"] <= it["schwarz"]
