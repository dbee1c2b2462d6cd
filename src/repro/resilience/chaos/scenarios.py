"""The chaos scenario catalogue: what we break, and how, on purpose.

A :class:`ChaosScenario` is a declarative description of one faulted run
of the partitioned RBC simulation -- which faults fire (explicit schedule
and/or random rates) and whether the hardened channel (retry + CRC) or the
replicated-checksum collective verification is armed.  Scenarios are pure
data: the harness (:mod:`repro.resilience.chaos.harness`) instantiates the
injector, the simulation and its runner from them, so the whole campaign
is reproducible from the catalogue plus one seed.

:func:`default_campaign` is the committed campaign CI runs, one scenario
per distinct recovery path: rank kills (mid-CG, during the checkpoint
barrier, on a 256-rank world), ≤20% message drop/delay storms, and SDC
bit flips on both a p2p exchange buffer and an allreduce result.  Every
scenario in it is designed to be survivable -- the acceptance bar is
100% survival with the recovered Nusselt number matching the fault-free
run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.faults import Fault

__all__ = ["ChaosScenario", "default_campaign"]


@dataclass(frozen=True)
class ChaosScenario:
    """One reproducible faulted run of the partitioned simulation.

    Parameters
    ----------
    name, description:
        Identification for the report; names are unique per campaign.
    schedule:
        Explicit :class:`~repro.resilience.faults.Fault` entries (targeted
        kills, bit flips); fire-once semantics.
    drop_rate, corrupt_rate, delay_rate:
        Random per-message fault probabilities (the "storm" knobs).
    nranks, n_steps:
        World size and steps of the run (small on purpose: a campaign is
        dozens of runs).
    shape, order:
        Box (elements per axis) and polynomial order overrides (``None``
        keeps the harness defaults); wide-world scenarios size the mesh to
        the rank count.
    retry:
        Arm the hardened p2p channel (CRC + retransmission).  Required
        whenever message faults are injected -- without it a dropped
        message is silent corruption, not a detectable fault.
    verify_collectives:
        Arm the replicated-checksum allreduce integrity check (required
        for ``collective_sdc`` faults to be detectable).
    max_retries:
        Retransmission budget of the hardened channel per message.
    expect_recoveries:
        Minimum number of rollback recoveries the scenario must perform
        to count as exercised (0 for storms absorbed by retransmission).
    """

    name: str
    description: str
    schedule: tuple[Fault, ...] = ()
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    nranks: int = 4
    n_steps: int = 6
    shape: "tuple[int, int, int] | None" = None
    order: "int | None" = None
    retry: bool = True
    verify_collectives: bool = False
    max_retries: int = 6
    expect_recoveries: int = 0

    def fault_kinds(self) -> tuple[str, ...]:
        """The distinct fault mechanisms this scenario injects."""
        kinds = {f.kind for f in self.schedule}
        if self.drop_rate:
            kinds.add("drop")
        if self.corrupt_rate:
            kinds.add("corrupt")
        if self.delay_rate:
            kinds.add("delay")
        return tuple(sorted(kinds))


def default_campaign() -> list[ChaosScenario]:
    """The committed CI campaign: 8 survivable scenarios.

    One per recovery path: warm replacement mid-CG (1) and at 256-rank
    width (8), a checkpoint that fails in its commit barrier, before any
    shard is staged (2), retransmission of drops (3), stale-duplicate
    dedup (4) and a CRC-caught bit flip (5), and a corrupted allreduce
    rolled back (6) or healed by recompute (7).  Staging that fails
    midway is ``EpochWriter.abort``'s, covered by
    ``tests/resilience/test_sharded_checkpoint.py``.  No scenario
    exhausts the channel's retransmission budget, so the
    ``CommTimeoutError`` rollback is gated by
    ``tests/resilience/test_recovery.py::TestEscalation::test_comm_timeout_recovers_via_rollback``.
    """
    return [
        ChaosScenario(
            name="kill-rank-early-warm",
            description="rank 2 dies in the first step's CG; warm replacement",
            schedule=(Fault(kind="rank_failure", rank=2, at_call=12, op="allreduce"),),
            expect_recoveries=1,
        ),
        ChaosScenario(
            name="kill-in-checkpoint-barrier",
            description="rank dies in the checkpoint's commit barrier, before "
            "staging; the previous epoch restores and both steps replay",
            schedule=(Fault(kind="rank_failure", rank=1, at_call=1, op="barrier"),),
            expect_recoveries=1,
        ),
        ChaosScenario(
            name="message-drop-storm",
            description="every p2p message dropped with p=0.15; "
            "retransmission recovers every drop within the retry budget",
            drop_rate=0.15,
        ),
        ChaosScenario(
            name="message-delay-storm",
            description="stale (delayed) deliveries with p=0.15; checksum "
            "dedup detects the stale payload and retransmits",
            delay_rate=0.15,
        ),
        ChaosScenario(
            name="exchange-bitflip",
            description="SDC bit flip in one exchange buffer; payload CRC "
            "catches it and the edge retransmits",
            schedule=(Fault(kind="corrupt", at_call=120),),
        ),
        ChaosScenario(
            name="collective-sdc-rollback",
            description="persistent bit flips across both attempts of one "
            "allreduce; replicated-checksum check exhausts, rollback recovers",
            schedule=(
                # Allreduce #15's attempt-1 replicas use result calls 30/31,
                # the recompute uses 32/33; corrupting one replica of each
                # attempt exhausts the integrity budget and forces rollback.
                Fault(kind="collective_sdc", at_call=30, op="allreduce"),
                Fault(kind="collective_sdc", at_call=32, op="allreduce"),
            ),
            retry=False,
            verify_collectives=True,
            expect_recoveries=1,
        ),
        ChaosScenario(
            name="collective-sdc-retry",
            description="bit flip in an allreduce replica absorbed by the "
            "verify-and-recompute retry, no rollback needed",
            schedule=(Fault(kind="collective_sdc", at_call=30, op="allreduce"),),
            verify_collectives=True,
        ),
        ChaosScenario(
            name="kill-rank-batched-256",
            description="rank 37 dies on a 256-rank world (one element "
            "per rank); warm replacement at simulated-exascale width",
            schedule=(Fault(kind="rank_failure", rank=37, at_call=12, op="allreduce"),),
            nranks=256,
            n_steps=2,
            shape=(8, 8, 4),
            order=2,
            expect_recoveries=1,
        ),
    ]
