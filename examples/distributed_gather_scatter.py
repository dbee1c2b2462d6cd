#!/usr/bin/env python
"""Domain decomposition and the two-phase gather-scatter, demonstrated.

The paper attributes Neko's scalability to the topology-aware two-phase
gather-scatter ("one [phase] for the local and one for the shared elements
between different MPI ranks").  This example partitions an RBC mesh over
simulated ranks, runs a distributed Jacobi-CG Helmholtz solve through the
two-phase operation, verifies agreement with the single-rank solver to
round-off, and prints the communication profile: one halo exchange per
operator application and 3 allreduces per CG iteration (p.Ap, r.r, r.z),
3 n + 1 for an n-iteration solve from a zero guess.

Run:  python examples/distributed_gather_scatter.py [--ranks N]
"""

import argparse

import numpy as np

from repro.comm import (
    DistributedConjugateGradient,
    DistributedGatherScatter,
    SimWorld,
    partition_quality,
    rcb_partition,
)
from repro.precond import JacobiPrecond
from repro.precond.jacobi import helmholtz_diagonal
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace
from repro.solvers import ConjugateGradient


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=4)
    args = parser.parse_args()

    mesh = box_mesh((4, 4, 4))
    sp = FunctionSpace(mesh, 6)
    bc = DirichletBC(sp, sp.mesh.boundary_labels(), 0.0)
    h1, h2 = 0.01, 50.0

    print(f"mesh: {mesh.nelv} elements, {sp.n_dofs} unique dofs, {args.ranks} ranks")
    owner = rcb_partition(mesh, args.ranks)
    q = partition_quality(owner, sp.gs.global_ids, mesh.nelv, sp.lx**3)
    print(f"partition (RCB): imbalance {q['imbalance']:.3f}, "
          f"shared nodes {q['shared_nodes_global']:.0f} "
          f"(max {q['max_shared_per_rank']:.0f} per rank)")

    world = SimWorld(args.ranks)
    dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, world)

    # Distribute the metric factors and build the rank-local operator.
    coefs = dgs.scatter_coef(sp.coef)

    def local_amul(r, chunk):
        return ax_helmholtz(chunk, coefs[r], sp.dx, h1, h2)

    rng = np.random.default_rng(0)
    b = sp.gs.add(sp.coef.mass * rng.normal(size=sp.shape)) * bc.mask

    mask_chunks = dgs.scatter_field(bc.mask)
    diag = np.where(bc.mask == 0.0, 1.0, sp.gs.add(helmholtz_diagonal(sp, h1, h2)))
    pd = [d * m for d, m in zip(dgs.scatter_field(1.0 / diag), mask_chunks)]

    dist = DistributedConjugateGradient(
        local_amul, dgs, world, local_mask=mask_chunks, precond_diag=pd, tol=1e-10
    )
    world.stats.reset()
    x_chunks, mon = dist.solve(dgs.scatter_field(b))
    x_dist = dgs.gather_field(x_chunks)
    print(f"\ndistributed solve: {mon.summary()}")
    print(f"traffic: {world.stats.allreduce_calls} allreduces, "
          f"{world.stats.p2p_messages} messages, "
          f"{world.stats.p2p_bytes / 1e3:.1f} kB point-to-point")

    def amul(u):
        return sp.gs.add(ax_helmholtz(u, sp.coef, sp.dx, h1, h2)) * bc.mask

    ref = ConjugateGradient(amul, sp.gs.dot,
                            precond=JacobiPrecond(sp, h1, h2, mask=bc.mask), tol=1e-10)
    x_ref, mon_ref = ref.solve(b)
    err = np.abs(x_dist - x_ref).max()
    print(f"single-rank solve: {mon_ref.summary()}")
    print(f"max |x_dist - x_single| = {err:.2e}")
    print(f"\nper-iteration communication: "
          f"{world.stats.allreduce_calls / max(1, mon.iterations):.1f} allreduces "
          f"(3 dots per CG iteration, 3 n + 1 = {3 * mon.iterations + 1} in all)")


if __name__ == "__main__":
    main()
