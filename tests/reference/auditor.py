"""Auditor twin: the two-pass plan audit.

``TwoPassAuditor`` checks each plan the way the auditor did before its
store reads were fused: ``_expected_tier`` reads every rank's own replica
to re-derive the tier and rollback, then ``_audit_retrievals`` reads
each planned source again and asks the cluster for every holder's
machine state.  Both passes read store contents only, never the plan's
claims, so its violation list is the specification for the fused one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.chaos.auditor import RecoveryInvariantAuditor
from repro.cluster.machine import MachineState
from repro.core.recovery import RecoveryPlan, RetrievalSource
from repro.failures.types import FailureType


class TwoPassAuditor(RecoveryInvariantAuditor):
    """:class:`RecoveryInvariantAuditor` with the two-pass plan audit."""

    def _audit_plan(
        self, failure_type: FailureType, failed_ranks: List[int], plan: RecoveryPlan
    ) -> None:
        self.audited_plans += 1
        self._last_plan = plan
        expected_cpu, expected_rollback = self._expected_tier(
            failure_type, failed_ranks
        )
        if plan.from_cpu_memory != expected_cpu:
            self._report(
                "tier-selection",
                f"plan for {failure_type.value} failure of {failed_ranks} chose "
                f"from_cpu_memory={plan.from_cpu_memory}, but store contents say "
                f"{expected_cpu}",
            )
        if plan.rollback_iteration != expected_rollback:
            self._report(
                "rollback-latest-replicated",
                f"plan rolls back to {plan.rollback_iteration}, but the latest "
                f"completely replicated step is {expected_rollback}",
            )
        self._audit_retrievals(plan)

    def _expected_tier(
        self, failure_type: FailureType, failed_ranks: List[int]
    ) -> Tuple[bool, Optional[int]]:
        """Independently re-derive (from_cpu_memory, rollback) per Section 6."""
        kernel = self.system
        policy = kernel.policy
        n = kernel.cluster.size
        persistent_latest = kernel.persistent.latest_complete()
        placement = getattr(policy, "placement", None)
        stores = getattr(policy, "stores", None)
        if placement is None or stores is None:
            # Remote-storage baseline: always the non-CPU fallback tier.
            rollback = self._fallback_rollback(persistent_latest)
            return False, rollback if rollback is not None else 0

        if failure_type is FailureType.SOFTWARE:
            own = [stores[rank].latest_complete(rank) for rank in range(n)]
            if all(iteration is not None for iteration in own):
                return True, min(own)
            return False, self._fallback_rollback(persistent_latest)

        failed = set(failed_ranks)
        iterations: List[int] = []
        for rank in range(n):
            if rank not in failed:
                own = stores[rank].latest_complete(rank)
                if own is None:
                    # A surviving rank must use its local replica; if that
                    # is gone (corruption), Section 6 falls back.
                    return False, self._fallback_rollback(persistent_latest)
                iterations.append(own)
                continue
            # Failed rank: its shard must come from the lowest-ranked
            # surviving peer that holds a complete copy (Section 6).
            held = [
                stores[peer].latest_complete(rank)
                for peer in sorted(placement.storers_of(rank))
                if peer != rank and peer not in failed
            ]
            complete = [latest for latest in held if latest is not None]
            if not complete:
                return False, self._fallback_rollback(persistent_latest)
            iterations.append(complete[0])
        # Store-level feasibility must imply placement-level
        # recoverability (the predicate core/probability.py computes the
        # odds of); flag the inconsistency if not.
        if not placement.recoverable(sorted(failed)):
            self._report(
                "tier-selection",
                "store contents allow CPU-memory recovery but "
                f"Placement.recoverable({sorted(failed)}) is False — "
                "placement math and store state disagree",
            )
        return True, min(iterations)

    def _audit_retrievals(self, plan: RecoveryPlan) -> None:
        kernel = self.system
        stores = getattr(kernel.policy, "stores", None)
        ssd = getattr(kernel.policy, "ssd", None)
        # Tier-wide reads, once per plan rather than once per rank.
        persistent_latest = kernel.persistent.latest_complete()
        ssd_latest = ssd.latest_complete() if ssd is not None else None
        failed = set(plan.failed_ranks)
        covered = sorted(retrieval.rank for retrieval in plan.retrievals)
        if covered != list(range(kernel.cluster.size)):
            self._report(
                "retrieval-sources",
                f"plan does not cover every rank exactly once: {covered}",
            )
        for retrieval in plan.retrievals:
            source = retrieval.source
            if source is RetrievalSource.PERSISTENT:
                if persistent_latest is None:
                    self._report(
                        "retrieval-sources",
                        f"rank {retrieval.rank} reads persistent storage but no "
                        "complete checkpoint exists there",
                    )
                continue
            if source is RetrievalSource.SSD:
                if ssd is None:
                    self._report(
                        "retrieval-sources",
                        f"rank {retrieval.rank} reads the SSD tier but the "
                        "policy has no SSD store",
                    )
                elif ssd_latest is None:
                    self._report(
                        "retrieval-sources",
                        f"rank {retrieval.rank} reads the SSD tier but no "
                        "complete checkpoint exists there",
                    )
                continue
            if stores is None:
                self._report(
                    "retrieval-sources",
                    f"rank {retrieval.rank} plans a CPU-memory read but the "
                    "policy has no CPU-memory stores",
                )
                continue
            if source is RetrievalSource.LOCAL_CPU:
                reader, holder = retrieval.rank, retrieval.rank
            else:
                holder = retrieval.peer if retrieval.peer is not None else -1
                reader = retrieval.rank
                if retrieval.peer is None:
                    self._report(
                        "retrieval-sources",
                        f"rank {reader} plans a remote-CPU read with no peer",
                    )
                    continue
                if holder in failed:
                    self._report(
                        "retrieval-sources",
                        f"rank {reader} reads rank {holder}, which is in the "
                        f"failed set {sorted(failed)}",
                    )
            machine = kernel.cluster.machine(holder)
            if machine.state in (MachineState.FAILED, MachineState.REPLACING):
                self._report(
                    "retrieval-sources",
                    f"rank {reader} reads CPU memory of rank {holder}, whose "
                    f"machine is {machine.state.value}",
                )
            if stores[holder].latest_complete(retrieval.rank) is None:
                self._report(
                    "retrieval-sources",
                    f"rank {reader} reads rank {retrieval.rank}'s shard from "
                    f"rank {holder}, whose store has no complete copy",
                )
