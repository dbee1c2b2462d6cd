"""Per-step work model of the P_N-P_N solver.

Counts memory traffic (in "field passes": one read+write sweep of a
``nelv * lx^3`` double field), kernel launches, global reductions and halo
exchanges for every phase of one time step, with the same algorithmic
structure as ``repro.core``:

* pressure: GMRES iterations, each = Poisson ax + gather-scatter +
  the hybrid Schwarz preconditioner (fine FDM smoother on extended arrays
  + fixed-iteration coarse solve) + orthogonalization vector work;
* velocity: 3 Helmholtz components, Jacobi-CG iterations;
* temperature: 1 Helmholtz, Jacobi-CG iterations;
* advection/dealiasing: interpolation to the 3/2 grid and back for 4
  convected fields plus BDF/EXT right-hand-side assembly.

Default iteration counts reflect the production regime the paper reports
(pressure dominating at > 85% of the step, Fig. 4).  They are inputs, not
truths -- the benches print them alongside the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.machine import GpuModel, MachineSpec

__all__ = ["SEMWorkModel", "PhaseCost"]


@dataclass
class PhaseCost:
    """Cost of one phase of a step on one GPU, in microseconds."""

    name: str
    compute_us: float
    launch_us: float
    halo_us: float
    allreduce_us: float

    @property
    def total_us(self) -> float:
        # Device compute overlaps with launch overhead only when the queue
        # is deep; take the max of throughput- and latency-bound estimates
        # plus the host-blocking communication.
        return max(self.compute_us, self.launch_us) + self.halo_us + self.allreduce_us


@dataclass
class SEMWorkModel:
    """Traffic/launch/reduction counts per time step."""

    lx: int = 8
    pressure_iterations: int = 50
    velocity_iterations: int = 3
    temperature_iterations: int = 3
    coarse_cg_iterations: int = 10
    bandwidth_efficiency: float = 0.75  # achieved fraction of peak HBM BW
    overlap_preconditioner: bool = True

    # passes per operator application (read+write sweeps of one field).
    ax_passes: float = 9.0        # u, w, 6 metric tensors, D reuse
    gs_passes: float = 1.0        # face-data heavy, ~one field equivalent
    vector_passes: float = 6.0    # axpy/dot/norm bookkeeping per iteration

    def field_bytes(self, ne_local: float) -> float:
        """Bytes of one read+write sweep of a local field."""
        return 2.0 * 8.0 * ne_local * self.lx**3

    # -- per-phase traffic ------------------------------------------------------

    def schwarz_passes(self) -> float:
        """Fine smoother: ~11 sweeps on (lx+2)^3 extended arrays."""
        scale = ((self.lx + 2) / self.lx) ** 3
        return 11.0 * scale

    def pressure_traffic(self, ne_local: float) -> tuple[float, float]:
        """(smoother+krylov bytes, coarse bytes) per step on one GPU."""
        per_it = self.ax_passes + self.gs_passes + self.vector_passes + self.schwarz_passes()
        coarse_bytes_per_it = self.coarse_cg_iterations * 4 * 2.0 * 8.0 * ne_local * 9
        main = self.pressure_iterations * per_it * self.field_bytes(ne_local)
        coarse = self.pressure_iterations * coarse_bytes_per_it
        return main, coarse

    def helmholtz_traffic(self, ne_local: float, iterations: int, components: int) -> float:
        per_it = self.ax_passes + self.gs_passes + self.vector_passes + 1.0  # +jacobi
        return components * iterations * per_it * self.field_bytes(ne_local)

    def advection_traffic(self, ne_local: float) -> float:
        # 4 convected fields; interpolate field + 3 reference derivatives to
        # the 1.5x grid, pointwise work there, project back, plus BDF/EXT
        # axpys on the coarse grid.
        fine_scale = 1.5**3
        per_field = (5.0 * fine_scale + 4.0) + 6.0
        return 4.0 * per_field * self.field_bytes(ne_local)

    # -- kernel launches ----------------------------------------------------------

    def pressure_launches(self) -> tuple[int, int]:
        """(main-path launches, coarse-path launches) per step."""
        main = self.pressure_iterations * (1 + 2 + 11 + 6)
        coarse = self.pressure_iterations * self.coarse_cg_iterations * 3
        return main, coarse

    def helmholtz_launches(self, iterations: int, components: int) -> int:
        return components * iterations * (1 + 2 + 1 + 6)

    # -- exchanges ------------------------------------------------------------------

    def step_exchanges(self) -> dict[str, tuple[int, float, int]]:
        """Per phase: (gather-scatters, size of each in fine halos, allreduces).

        The one count of a step's communication: the closed-form step time
        and the simulated campaign both price these.
        """
        p = self.pressure_iterations
        v, t = self.velocity_iterations, self.temperature_iterations
        return {
            # ax + smoother; GMRES norm plus Gram-Schmidt dots batched ~2.
            "pressure_main": (p * 2, 1.0, p * 3),
            # tiny vertex halos; two dots per coarse CG iteration.
            "pressure_coarse": (p, 0.1, p * self.coarse_cg_iterations * 2),
            "velocity": (3 * v, 1.0, 3 * v * 2),
            "temperature": (t, 1.0, t * 2),
            "advection": (4, 1.0, 0),
        }

    # -- assembled phase costs ----------------------------------------------------------

    def halo_bytes(self, ne_local: float) -> float:
        """Shared-face data of one gather-scatter on one GPU."""
        side = max(1.0, ne_local ** (1.0 / 3.0))
        n_face_elements = 6.0 * side**2
        return n_face_elements * self.lx**2 * 8.0

    def step_costs(
        self,
        ne_local: float,
        device: GpuModel,
        net: MachineSpec,
        n_ranks: int,
    ) -> dict[str, PhaseCost]:
        """Phase costs of one step on one GPU of an ``n_ranks`` job.

        ``net`` is the machine whose alpha-beta model prices the exchanges.
        """
        bw = device.peak_bandwidth_gbs * 1e9 * self.bandwidth_efficiency

        def us(nbytes: float) -> float:
            return nbytes / bw * 1e6

        halo_per_gs = net.halo_exchange_us(self.halo_bytes(ne_local))
        red = net.allreduce_us(n_ranks)
        exchanges = self.step_exchanges()

        def comm(phase: str) -> tuple[float, float]:
            # This operand order reproduces the committed step times bit for bit.
            n_gs, size, n_red = exchanges[phase]
            return n_gs * halo_per_gs * size, n_red * red

        # Pressure.
        main_bytes, coarse_bytes = self.pressure_traffic(ne_local)
        main_l, coarse_l = self.pressure_launches()
        main = PhaseCost(
            "pressure_main",
            us(main_bytes),
            main_l * device.launch_overhead_us,
            *comm("pressure_main"),
        )
        coarse = PhaseCost(
            "pressure_coarse",
            us(coarse_bytes),
            coarse_l * device.launch_overhead_us,
            *comm("pressure_coarse"),
        )
        if self.overlap_preconditioner:
            pressure_total = max(main.total_us, coarse.total_us) + 0.05 * min(
                main.total_us, coarse.total_us
            )
        else:
            pressure_total = main.total_us + coarse.total_us
        pressure = PhaseCost(
            "pressure",
            main.compute_us + coarse.compute_us,
            main.launch_us + coarse.launch_us,
            main.halo_us + coarse.halo_us,
            main.allreduce_us + coarse.allreduce_us,
        )
        # Override the derived total with the schedule-aware one.
        pressure._total_override = pressure_total

        vel = PhaseCost(
            "velocity",
            us(self.helmholtz_traffic(ne_local, self.velocity_iterations, 3)),
            self.helmholtz_launches(self.velocity_iterations, 3) * device.launch_overhead_us,
            *comm("velocity"),
        )
        temp = PhaseCost(
            "temperature",
            us(self.helmholtz_traffic(ne_local, self.temperature_iterations, 1)),
            self.helmholtz_launches(self.temperature_iterations, 1) * device.launch_overhead_us,
            *comm("temperature"),
        )
        adv = PhaseCost(
            "advection",
            us(self.advection_traffic(ne_local)),
            60 * device.launch_overhead_us,
            *comm("advection"),
        )
        return {
            "pressure": pressure,
            "pressure_main": main,
            "pressure_coarse": coarse,
            "velocity": vel,
            "temperature": temp,
            "advection": adv,
        }

    @staticmethod
    def phase_total_us(cost: PhaseCost) -> float:
        """Total including any schedule-aware override."""
        return getattr(cost, "_total_override", cost.total_us)

    def step_time_us(
        self,
        ne_local: float,
        device: GpuModel,
        net: MachineSpec,
        n_ranks: int,
    ) -> float:
        """Whole-step time on one GPU (all ranks are symmetric)."""
        costs = self.step_costs(ne_local, device, net, n_ranks)
        return sum(
            self.phase_total_us(costs[k])
            for k in ("pressure", "velocity", "temperature", "advection")
        )
