#!/usr/bin/env python
"""Quickstart: Rayleigh-Benard convection between parallel plates.

Runs a laptop-scale DNS at Ra = 1e5 (Pr = 1) in a doubly-periodic box with
the full production configuration of the framework -- P_N-P_N splitting,
BDF3/EXT3, 3/2-rule dealiasing, CG + hybrid Schwarz multigrid
pressure solve -- and prints the Nusselt-number estimators, the wall-time
distribution over solver phases and the boundary-layer thickness.

Run:  python examples/quickstart.py [--steps N]
"""

import argparse
import time

from repro.analysis import mean_profile, thermal_bl_thickness
from repro.core import Simulation, rbc_box_case


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=400, help="time steps to run")
    parser.add_argument("--rayleigh", type=float, default=1e5)
    args = parser.parse_args()

    config = rbc_box_case(
        args.rayleigh,
        n=(4, 4, 4),
        lx=6,
        aspect=2.0,
        perturbation_amplitude=0.1,
    )
    sim = Simulation(config)
    print(f"case: {config.name}")
    print(f"space: {sim.space}")
    print(f"dt = {config.dt:g}, nu = {config.viscosity:.3e}, kappa = {config.conductivity:.3e}")
    print()

    t0 = time.perf_counter()
    sim.run(n_steps=args.steps, stats_interval=20, print_interval=max(1, args.steps // 8))
    elapsed = time.perf_counter() - t0

    nu = sim.time_averaged_nusselt(discard_fraction=0.5)
    print()
    print(f"ran {args.steps} steps ({sim.time:.2f} free-fall times) in {elapsed:.1f} s")
    print(f"Nusselt (volume flux):        {nu.volume:7.3f}")
    print(f"Nusselt (bottom plate):       {nu.plate_bottom:7.3f}")
    print(f"Nusselt (top plate):          {nu.plate_top:7.3f}")
    print(f"Nusselt (thermal dissipation):{nu.dissipation:7.3f}")
    print(f"estimator spread:             {nu.spread:7.1%}")

    z, t_mean = mean_profile(sim.space, sim.temperature)
    lam = thermal_bl_thickness(z, t_mean, "bottom")
    print(f"thermal BL thickness:         {lam:7.4f}  (1/(2 Nu) = {1 / (2 * nu.mean):.4f})")
    print()
    print("wall-time distribution (the measured Fig. 4 analogue):")
    print(sim.timers.report())


if __name__ == "__main__":
    main()
