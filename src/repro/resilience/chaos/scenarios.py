"""The chaos scenario catalogue: what we break, and how, on purpose.

A :class:`ChaosScenario` is a declarative description of one faulted run
of the reference distributed workload -- which faults fire (explicit
schedule and/or random rates), which recovery policy responds, and
whether the hardened channel (retry + CRC) or the replicated-checksum
collective verification is armed.  Scenarios are pure data: the harness
(:mod:`repro.resilience.chaos.harness`) instantiates the injector, the
store and the workload from them, so the whole campaign is reproducible
from the catalogue plus one seed.

:func:`default_campaign` is the committed campaign CI runs: rank kills
(early, late, during the checkpoint barrier, repeated), ≤20% message
drop/delay storms, targeted drops, and SDC bit flips on both a p2p
exchange buffer and an allreduce result.  Every scenario in it is
designed to be survivable -- the acceptance bar is 100% survival with the
recovered Nusselt proxy matching the fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.faults import Fault

__all__ = ["ChaosScenario", "default_campaign"]


@dataclass(frozen=True)
class ChaosScenario:
    """One reproducible faulted run of the distributed workload.

    Parameters
    ----------
    name, description:
        Identification for the report; names are unique per campaign.
    schedule:
        Explicit :class:`~repro.resilience.faults.Fault` entries (targeted
        kills, bit flips); fire-once semantics.
    drop_rate, corrupt_rate, delay_rate:
        Random per-message fault probabilities (the "storm" knobs).
    policy:
        Recovery policy, ``"warm_replace"`` or ``"shrink"``.
    nranks, n_steps:
        World size and steps of the run (small on purpose: a campaign is
        dozens of runs).
    shape, order:
        Workload mesh overrides (``None`` keeps the harness defaults);
        wide-world scenarios size the mesh to the rank count.
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
    policy: str = "warm_replace"
    nranks: int = 4
    n_steps: int = 6
    shape: "tuple[int, int, int] | None" = None
    order: "int | None" = None
    retry: bool = True
    verify_collectives: bool = False
    max_retries: int = 6
    expect_recoveries: int = 0
    tags: tuple[str, ...] = field(default=())

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
    """The committed CI campaign: 13 survivable scenarios.

    Coverage matrix (the four required fault families, each hit by
    several scenarios): rank kill (1-5, 12, 13), message drop (6, 8, 12),
    message delay (7, 12), SDC bit flip (9-11).  Scenario 13 runs the
    kill-and-recover path on a 256-rank world.
    """
    return [
        ChaosScenario(
            name="kill-rank-early-warm",
            description="rank 2 dies in the first step's CG; warm replacement",
            schedule=(Fault(kind="rank_failure", rank=2, at_call=12, op="allreduce"),),
            policy="warm_replace",
            expect_recoveries=1,
            tags=("rank_kill",),
        ),
        ChaosScenario(
            name="kill-rank-late-warm",
            description="rank 3 dies deep into the run; warm replacement",
            schedule=(Fault(kind="rank_failure", rank=3, at_call=200, op="allreduce"),),
            policy="warm_replace",
            expect_recoveries=1,
            tags=("rank_kill",),
        ),
        ChaosScenario(
            name="kill-rank-shrink",
            description="rank 1 dies; world shrinks 4 -> 3 and repartitions",
            schedule=(Fault(kind="rank_failure", rank=1, at_call=40, op="allreduce"),),
            policy="shrink",
            expect_recoveries=1,
            tags=("rank_kill", "shrink"),
        ),
        ChaosScenario(
            name="double-kill-shrink",
            description="two rank deaths; world shrinks 4 -> 3 -> 2",
            schedule=(
                Fault(kind="rank_failure", rank=2, at_call=40, op="allreduce"),
                Fault(kind="rank_failure", rank=0, at_call=260, op="allreduce"),
            ),
            policy="shrink",
            expect_recoveries=2,
            tags=("rank_kill", "shrink"),
        ),
        ChaosScenario(
            name="kill-in-checkpoint-barrier",
            description="rank dies inside the checkpoint commit barrier; "
            "the staged epoch aborts and the previous epoch restores",
            schedule=(Fault(kind="rank_failure", rank=1, at_call=1, op="barrier"),),
            policy="warm_replace",
            expect_recoveries=1,
            tags=("rank_kill", "two_phase_commit"),
        ),
        ChaosScenario(
            name="message-drop-storm",
            description="every p2p message dropped with p=0.15; CRC detects, "
            "retransmission recovers (timeout falls back to rollback)",
            drop_rate=0.15,
            tags=("message_drop",),
        ),
        ChaosScenario(
            name="message-delay-storm",
            description="stale (delayed) deliveries with p=0.15; checksum "
            "dedup detects the stale payload and retransmits",
            delay_rate=0.15,
            tags=("message_delay",),
        ),
        ChaosScenario(
            name="targeted-drop",
            description="one scheduled drop of a gather-scatter message",
            schedule=(Fault(kind="drop", at_call=100),),
            tags=("message_drop",),
        ),
        ChaosScenario(
            name="exchange-bitflip",
            description="SDC bit flip in one exchange buffer; payload CRC "
            "catches it and the edge retransmits",
            schedule=(Fault(kind="corrupt", at_call=120),),
            tags=("sdc", "message_corrupt"),
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
            tags=("sdc", "collective"),
        ),
        ChaosScenario(
            name="collective-sdc-retry",
            description="bit flip in an allreduce replica absorbed by the "
            "verify-and-recompute retry, no rollback needed",
            schedule=(Fault(kind="collective_sdc", at_call=30, op="allreduce"),),
            verify_collectives=True,
            tags=("sdc", "collective"),
        ),
        ChaosScenario(
            name="mixed-storm-shrink",
            description="drop+delay storm with a rank kill on top; shrink "
            "recovery under degraded network",
            schedule=(Fault(kind="rank_failure", rank=3, at_call=90, op="allreduce"),),
            drop_rate=0.05,
            delay_rate=0.05,
            policy="shrink",
            expect_recoveries=1,
            tags=("rank_kill", "message_drop", "message_delay", "shrink"),
        ),
        ChaosScenario(
            name="kill-rank-batched-256",
            description="rank 37 dies on a 256-rank world (one element "
            "per rank); warm replacement at simulated-exascale width",
            schedule=(Fault(kind="rank_failure", rank=37, at_call=12, op="allreduce"),),
            policy="warm_replace",
            nranks=256,
            n_steps=2,
            shape=(8, 8, 4),
            order=2,
            expect_recoveries=1,
            tags=("rank_kill", "batched"),
        ),
    ]
