"""The pressure solve on stepped RBC cases: closing residual and reduction count.

Each pressure solve of a stepped box and cylinder must meet its target on
the true residual ``b - A x``, not only on the CG recurrence, and each CG
iteration must take three inner products and two mean projections -- the
global reductions a distributed run pays per iteration.
"""

import numpy as np
import pytest

from repro.core import Simulation, rbc_box_case, rbc_cylinder_case

STEPS = 20


def box_case():
    return rbc_box_case(1e5, n=(2, 2, 2), lx=4, aspect=2.0, dt=0.025)


def cylinder_case():
    return rbc_cylinder_case(1e5, aspect=1.0, n_square=2, n_ring=2, n_z=2, lx=5)


@pytest.mark.parametrize("make_case", [box_case, cylinder_case], ids=["box", "cylinder"])
def test_pressure_solves_close_on_the_true_residual(make_case):
    sim = Simulation(make_case())
    fluid, gs = sim.fluid, sim.space.gs
    solver, projection = fluid.pressure_solver, fluid.pressure_projection
    counts = {"dot": 0, "mean": 0}
    solves = []  # (iterations, dots, means) per CG solve
    closes = []  # (true residual, target) per pressure solve

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    solver.dot = counted("dot", solver.dot)
    fluid._pressure_project.mean = counted("mean", fluid._pressure_project.mean)
    solve, solve_with = solver.solve, projection.solve_with

    def counted_solve(b, x0=None):
        before = dict(counts)
        x, mon = solve(b, x0)
        solves.append((mon.iterations, counts["dot"] - before["dot"],
                       counts["mean"] - before["mean"]))
        return x, mon

    def checked_solve_with(s, b):
        x, mon = solve_with(s, b)
        res = b - projection.amul(x)
        closes.append((float(np.sqrt(gs.dot(res, res))), mon.target))
        return x, mon

    solver.solve = counted_solve
    projection.solve_with = checked_solve_with
    sim.run(n_steps=STEPS)

    assert len(closes) == STEPS
    for true_residual, target in closes:
        assert true_residual <= 1.001 * target
    iterating = [s for s in solves if s[0] > 0]
    assert iterating
    for iterations, dots, means in iterating:
        # Per iteration: <p, Ap>, ||r||, <r, z>; the means of Ap and z.
        # Outside the loop: ||r_0|| and <r_0, z_0> (the last iteration
        # stops before its <r, z>); the means of b, z_0 and x, less the
        # last iteration's z.
        assert dots == 3 * iterations + 1
        assert means == 2 * iterations + 2
