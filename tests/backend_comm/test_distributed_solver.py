"""Tests for the distributed CG over simulated ranks."""

import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.comm import (
    DistributedConjugateGradient,
    DistributedGatherScatter,
    SimWorld,
    linear_partition,
    rcb_partition,
)
from repro.precond.jacobi import helmholtz_diagonal
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace
from repro.solvers import ConjugateGradient
from repro.precond import JacobiPrecond


def build_distributed(sp, nranks, h1, h2, mask, partition=linear_partition):
    world = SimWorld(nranks)
    owner = (
        partition(sp.mesh.nelv, nranks)
        if partition is linear_partition
        else partition(sp.mesh, nranks)
    )
    dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, world)
    # Each rank's slice of what ax_helmholtz reads: the metric and the mass.
    coefs = [
        SimpleNamespace(g=sp.coef.g.map(lambda m, e=e: m[..., e, :, :, :]), mass=sp.coef.mass[e])
        for e in dgs.rank_elements
    ]

    def local_amul(r, chunk):
        return ax_helmholtz(chunk, coefs[r], sp.dx, h1, h2)

    mask_chunks = dgs.scatter_field(mask)
    diag = sp.gs.add(helmholtz_diagonal(sp, h1, h2))
    diag = np.where(mask == 0.0, 1.0, diag)
    pd = dgs.scatter_field(1.0 / diag)
    pd = [d * m for d, m in zip(pd, mask_chunks)]
    solver = DistributedConjugateGradient(
        local_amul, dgs, world, local_mask=mask_chunks, precond_diag=pd,
        tol=1e-10, maxiter=400,
    )
    return solver, dgs, world


@pytest.fixture(scope="module")
def problem():
    sp = FunctionSpace(box_mesh((3, 2, 2)), 5)
    bc = DirichletBC(sp, ["bottom", "top", "x-", "x+", "y-", "y+"], 0.0)
    h1, h2 = 0.05, 20.0
    rng = np.random.default_rng(0)
    b = sp.gs.add(sp.coef.mass * rng.normal(size=sp.shape)) * bc.mask

    def amul(u):
        return sp.gs.add(ax_helmholtz(u, sp.coef, sp.dx, h1, h2)) * bc.mask

    ref_solver = ConjugateGradient(
        amul, sp.gs.dot, precond=JacobiPrecond(sp, h1, h2, mask=bc.mask),
        tol=1e-10, maxiter=400,
    )
    x_ref, mon_ref = ref_solver.solve(b)
    assert mon_ref.converged
    return sp, bc, h1, h2, b, x_ref, mon_ref


class TestDistributedCG:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_matches_single_rank(self, problem, nranks):
        sp, bc, h1, h2, b, x_ref, mon_ref = problem
        solver, dgs, world = build_distributed(sp, nranks, h1, h2, bc.mask)
        x_chunks, mon = solver.solve(dgs.scatter_field(b))
        assert mon.converged
        x = dgs.gather_field(x_chunks)
        assert np.allclose(x, x_ref, atol=1e-7 * max(1.0, np.abs(x_ref).max()))
        # The solve went through dgs.dot's weights, built once and reused.
        assert dgs.dot(b, x) == pytest.approx(sp.gs.dot(b, x), rel=1e-12)

    def test_iteration_count_rank_invariant(self, problem):
        sp, bc, h1, h2, b, x_ref, mon_ref = problem
        its = []
        for nranks in (1, 3):
            solver, dgs, world = build_distributed(sp, nranks, h1, h2, bc.mask)
            _, mon = solver.solve(dgs.scatter_field(b))
            its.append(mon.iterations)
        assert abs(its[0] - its[1]) <= 2

    def test_communication_pattern(self, problem):
        # One allreduce per dot: r.z and r.r before the loop, then p.Ap,
        # r.r and r.z per iteration, except the converging one, which stops
        # after r.r -- 3 per iteration + 1 -- and one halo exchange per
        # operator application.
        sp, bc, h1, h2, b, x_ref, _ = problem
        solver, dgs, world = build_distributed(sp, 2, h1, h2, bc.mask)
        world.stats.reset()
        _, mon = solver.solve(dgs.scatter_field(b))
        n_it = mon.iterations
        assert world.stats.allreduce_calls == 3 * n_it + 1
        assert world.stats.p2p_messages > 0

    def test_rcb_partition_also_works(self, problem):
        sp, bc, h1, h2, b, x_ref, _ = problem
        solver, dgs, world = build_distributed(
            sp, 4, h1, h2, bc.mask, partition=rcb_partition
        )
        x_chunks, mon = solver.solve(dgs.scatter_field(b))
        assert mon.converged
        x = dgs.gather_field(x_chunks)
        assert np.allclose(x, x_ref, atol=1e-7 * max(1.0, np.abs(x_ref).max()))


def test_example_agrees_with_single_rank(tmp_path):
    """``examples/distributed_gather_scatter.py --ranks 4`` exits 0 and prints agreement."""
    root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(root / "examples" / "distributed_gather_scatter.py"), "--ranks", "4"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    iters = re.findall(r"solve: cg: converged in (\d+) iters", proc.stdout)
    assert len(iters) == 2 and iters[0] == iters[1], proc.stdout
    err = re.search(r"max \|x_dist - x_single\| = (\S+)", proc.stdout)
    assert err is not None and float(err.group(1)) < 1e-12, proc.stdout
