"""Placement twins: the fleet-scan bodies of the placement queries.

``Placement`` answers ``hosted_by``, ``lost_shards``, ``recoverable``,
``group_of`` and ``max_replicas_per_machine`` from indices built once at
construction; these are the original list-comprehension bodies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.placement import Placement


def slow_hosted_by(placement: Placement, rank: int) -> List[int]:
    return [
        owner
        for owner, storers in enumerate(placement.replica_sets)
        if rank in storers
    ]


def slow_lost_shards(placement: Placement, failed_ranks: Iterable[int]) -> List[int]:
    failed = set(failed_ranks)
    unknown = failed - set(range(placement.num_machines))
    if unknown:
        raise ValueError(f"unknown ranks in failure set: {sorted(unknown)}")
    return [
        owner
        for owner, storers in enumerate(placement.replica_sets)
        if storers <= failed
    ]


def slow_recoverable(placement: Placement, failed_ranks: Iterable[int]) -> bool:
    return not slow_lost_shards(placement, failed_ranks)


def slow_group_of(placement: Placement, rank: int) -> Tuple[int, ...]:
    for group in placement.groups:
        if rank in group:
            return group
    raise KeyError(f"rank {rank} not in any group")


def slow_max_replicas_per_machine(placement: Placement) -> int:
    counts: Dict[int, int] = {}
    for storers in placement.replica_sets:
        for machine in storers:
            counts[machine] = counts.get(machine, 0) + 1
    return max(counts.values())
