"""Planner twin: one store read and one ``ShardRetrieval`` per rank.

``per_rank_plan_recovery`` is the recovery planner body from before the
shared retrieval lists and the fleet watermark: it reads every rank's
own replica from its store and builds a fresh entry for every rank, so
it depends on nothing but the stores' public reads.
"""

from __future__ import annotations

from typing import List, Mapping

from repro.core.placement import Placement
from repro.core.recovery import (
    RecoveryPlan,
    RetrievalSource,
    ShardRetrieval,
    UnrecoverableError,
)
from repro.failures import FailureType
from repro.storage import PersistentStore


def per_rank_plan_recovery(
    placement: Placement,
    stores: Mapping[int, object],
    persistent: PersistentStore,
    failure_type: FailureType,
    failed_ranks: List[int],
) -> RecoveryPlan:
    n = placement.num_machines
    failed = set(failed_ranks)

    if failure_type is FailureType.SOFTWARE:
        iterations = [stores[rank].latest_complete(rank) for rank in range(n)]
        if all(it is not None for it in iterations):
            rollback = min(iterations)
            retrievals = [
                ShardRetrieval(rank=rank, source=RetrievalSource.LOCAL_CPU)
                for rank in range(n)
            ]
            return RecoveryPlan(
                failure_type=failure_type,
                failed_ranks=sorted(failed),
                retrievals=retrievals,
                rollback_iteration=rollback,
                from_cpu_memory=True,
            )
        return per_rank_persistent_plan(placement, persistent, failure_type, failed)

    retrievals: List[ShardRetrieval] = []
    iterations: List[int] = []
    for rank in range(n):
        if rank not in failed:
            own = stores[rank].latest_complete(rank)
            if own is None:
                return per_rank_persistent_plan(
                    placement, persistent, failure_type, failed
                )
            iterations.append(own)
            retrievals.append(ShardRetrieval(rank=rank, source=RetrievalSource.LOCAL_CPU))
            continue
        peer = latest = None
        for candidate in sorted(placement.storers_of(rank)):
            if candidate == rank or candidate in failed:
                continue
            latest = stores[candidate].latest_complete(rank)
            if latest is not None:
                peer = candidate
                break
        if peer is None:
            return per_rank_persistent_plan(placement, persistent, failure_type, failed)
        iterations.append(latest)
        retrievals.append(
            ShardRetrieval(rank=rank, source=RetrievalSource.REMOTE_CPU, peer=peer)
        )
    return RecoveryPlan(
        failure_type=failure_type,
        failed_ranks=sorted(failed),
        retrievals=retrievals,
        rollback_iteration=min(iterations),
        from_cpu_memory=True,
    )


def per_rank_persistent_plan(placement, persistent, failure_type, failed) -> RecoveryPlan:
    rollback = persistent.latest_complete()
    if rollback is None:
        raise UnrecoverableError(
            "no complete checkpoint in persistent storage and CPU-memory "
            "replicas are unavailable"
        )
    retrievals = [
        ShardRetrieval(rank=rank, source=RetrievalSource.PERSISTENT)
        for rank in range(placement.num_machines)
    ]
    return RecoveryPlan(
        failure_type=failure_type,
        failed_ranks=sorted(failed),
        retrievals=retrievals,
        rollback_iteration=rollback,
        from_cpu_memory=False,
    )
