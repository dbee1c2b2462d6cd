#!/usr/bin/env python
"""Domain decomposition and the two-phase gather-scatter, demonstrated.

The paper attributes Neko's scalability to the topology-aware two-phase
gather-scatter ("one [phase] for the local and one for the shared elements
between different MPI ranks").  This example partitions an RBC mesh over
simulated ranks and runs the one Jacobi-CG Helmholtz solve twice: with the
two-phase ``DistributedGatherScatter``'s ``add`` and ``dot`` (full fields,
as the single-rank gather-scatter takes), then with the single-rank
gather-scatter.  It verifies agreement to round-off (exit status 1 if
not) and prints the communication profile: one halo exchange per operator
application and 3 allreduces per CG iteration (p.Ap, r.r, r.z), 3 n + 1
for an n-iteration solve from a zero guess.

Run:  python examples/distributed_gather_scatter.py [--ranks N]
"""

import argparse
import sys

import numpy as np

from repro.comm import (
    DistributedGatherScatter,
    SimWorld,
    partition_quality,
    rcb_partition,
)
from repro.precond import JacobiPrecond
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace
from repro.solvers import ConjugateGradient


def main() -> int:
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
    precond = JacobiPrecond(sp, h1, h2, mask=bc.mask)

    rng = np.random.default_rng(0)
    b = sp.gs.add(sp.coef.mass * rng.normal(size=sp.shape)) * bc.mask

    # One CG, two gather--scatters: the rank world's add/dot, or one rank's.
    def solve(gs):
        def amul(u):
            return gs.add(ax_helmholtz(u, sp.coef, sp.dx, h1, h2)) * bc.mask

        return ConjugateGradient(amul, gs.dot, precond=precond, tol=1e-10).solve(b)

    world.stats.reset()
    x_dist, mon = solve(dgs)
    print(f"\ndistributed solve: {mon.summary()}")
    print(f"traffic: {world.stats.allreduce_calls} allreduces, "
          f"{world.stats.p2p_messages} messages, "
          f"{world.stats.p2p_bytes / 1e3:.1f} kB point-to-point")

    x_ref, mon_ref = solve(sp.gs)
    err = np.abs(x_dist - x_ref).max()
    print(f"single-rank solve: {mon_ref.summary()}")
    print(f"max |x_dist - x_single| = {err:.2e}")
    print(f"\nper-iteration communication: "
          f"{world.stats.allreduce_calls / max(1, mon.iterations):.1f} allreduces "
          f"(3 dots per CG iteration, 3 n + 1 = {3 * mon.iterations + 1} in all)")
    return 0 if err <= 1e-8 * max(1.0, np.abs(x_ref).max()) else 1


if __name__ == "__main__":
    sys.exit(main())
