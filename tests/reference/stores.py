"""Store twins: no watermark, and one loop per store.

``PerSlotStore`` is the double-buffered store before the watermark: every
write, commit and reseed touches each slot.  ``per_slot_commit_all`` is
the per-(owner, storer) commit loop a bulk write replaces, restricted to
one storer.  ``per_store_commit`` and ``per_store_reseed`` are the fleet
loops a :class:`~repro.storage.CPUStoreFleet` replaces: one bulk write
or reseed per store, skipping what the policy skipped.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Optional

from repro.cluster import Cluster, Machine
from repro.storage.cpu_memory import ReplicaSlot


class PerSlotStore:
    """The double-buffered store with no watermark: every write, commit
    and reseed touches each slot."""

    def __init__(self, machine: Machine, obs=None):
        self.machine = machine
        self._epoch = machine.epoch
        self._slots: Dict[int, ReplicaSlot] = {}
        self._obs = obs

    def _update_hosted_gauge(self) -> None:
        if self._obs is None or not self._obs.enabled:
            return
        self._obs.metrics.gauge(
            "repro_cpu_ckpt_hosted_replicas",
            help="checkpoint shards hosted in this machine's CPU memory",
            labels={"machine": self.machine.machine_id},
        ).set(len(self._slots))

    @property
    def valid(self) -> bool:
        return self.machine.live_epoch == self._epoch

    def _check_valid(self) -> None:
        if self.machine.live_epoch != self._epoch:
            raise RuntimeError(
                f"checkpoint store on {self.machine} is invalid "
                "(hardware failed or machine replaced)"
            )

    def host_shard(self, rank: int, nbytes: float) -> ReplicaSlot:
        self._check_valid()
        if rank in self._slots:
            raise ValueError(f"shard of rank {rank} already hosted on {self.machine}")
        if nbytes <= 0:
            raise ValueError(f"shard size must be > 0, got {nbytes}")
        slot = ReplicaSlot(rank=rank, nbytes=nbytes)
        self.machine.allocate_cpu_memory(
            slot.reserved_bytes, what=f"checkpoint buffers for rank {rank}"
        )
        self._slots[rank] = slot
        self._update_hosted_gauge()
        return slot

    def drop_shard(self, rank: int) -> None:
        self._check_valid()
        slot = self._slots.pop(rank, None)
        if slot is None:
            raise KeyError(f"rank {rank} not hosted on {self.machine}")
        self.machine.free_cpu_memory(slot.reserved_bytes)
        self._update_hosted_gauge()

    def hosted_ranks(self) -> List[int]:
        return sorted(self._slots)

    def slot(self, rank: int) -> ReplicaSlot:
        try:
            return self._slots[rank]
        except KeyError:
            raise KeyError(f"rank {rank} not hosted on {self.machine}") from None

    def begin_write(self, rank: int, iteration: int) -> None:
        self._check_valid()
        slot = self.slot(rank)
        if slot.in_progress_iteration is not None:
            raise RuntimeError(
                f"rank {rank} on {self.machine}: write for iteration "
                f"{slot.in_progress_iteration} still in progress"
            )
        if slot.completed_iteration is not None and iteration <= slot.completed_iteration:
            raise ValueError(
                f"rank {rank}: iteration {iteration} not newer than completed "
                f"{slot.completed_iteration}"
            )
        slot.in_progress_iteration = iteration

    def commit_write(self, rank: int, iteration: int) -> None:
        self._check_valid()
        slot = self.slot(rank)
        if slot.in_progress_iteration != iteration:
            raise RuntimeError(
                f"rank {rank}: commit for iteration {iteration} but in-progress "
                f"is {slot.in_progress_iteration}"
            )
        slot.completed_iteration = iteration
        slot.in_progress_iteration = None
        if self._obs is not None and self._obs.enabled:
            metrics = self._obs.metrics
            metrics.counter(
                "repro_cpu_ckpt_commits_total",
                help="shard writes committed to CPU-memory stores",
            ).inc()
            metrics.counter(
                "repro_cpu_ckpt_bytes_total",
                help="bytes committed to CPU-memory checkpoint stores",
            ).inc(slot.nbytes)

    def abort_write(self, rank: int) -> None:
        self._check_valid()
        self.slot(rank).in_progress_iteration = None

    def corrupt_shard(self, rank: int) -> None:
        self._check_valid()
        slot = self.slot(rank)
        slot.completed_iteration = None
        slot.in_progress_iteration = None

    def reseed(self, iteration: int) -> None:
        self._check_valid()
        for slot in self._slots.values():
            slot.in_progress_iteration = None
            if slot.completed_iteration is None or slot.completed_iteration < iteration:
                slot.completed_iteration = iteration

    def latest_complete(self, rank: int) -> Optional[int]:
        if self.machine.live_epoch != self._epoch:
            return None
        slot = self._slots.get(rank)
        return slot.completed_iteration if slot else None


def per_slot_commit_all(store, iteration: int) -> None:
    """The per-(owner, storer) commit loop, restricted to one storer:
    its owners in rank order, skipping slots already at ``iteration``."""
    for rank in store.hosted_ranks():
        latest = store.latest_complete(rank)
        if latest is not None and latest >= iteration:
            continue
        store.begin_write(rank, iteration)
        store.commit_write(rank, iteration)


def per_store_commit(
    stores: Mapping[int, object],
    cluster: Cluster,
    iteration: int,
    assume_healthy: Collection[int] = (),
) -> None:
    """One bulk write per valid store whose rank is not down (or is in
    ``assume_healthy``), in rank order."""
    skip = set(cluster.down_ranks()).difference(assume_healthy)
    for rank, store in stores.items():
        if rank not in skip and store.valid:
            if isinstance(store, PerSlotStore):
                per_slot_commit_all(store, iteration)
            else:
                store.commit_all(iteration)


def per_store_reseed(stores: Mapping[int, object], iteration: int) -> None:
    """Reseed every valid store."""
    for store in stores.values():
        if store.valid:
            store.reseed(iteration)
