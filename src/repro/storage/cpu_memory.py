"""Per-machine CPU-memory checkpoint store.

Each machine keeps, for every shard it hosts (its own plus its placement
peers'), **two buffers**: one for the latest *completed* checkpoint and one
for the *ongoing* write (Section 7.1).  A write only becomes visible when
committed, so a failure mid-checkpoint always leaves the previous complete
checkpoint recoverable — the double-buffer is what makes per-iteration
checkpointing crash-consistent.

Contents live in the machine's CPU memory and are destroyed by hardware
failures (the store compares the machine's ``live_epoch``, its
incarnation epoch while the hardware is alive, with the epoch it was
created in).

A fleet commit writes the same iteration into every slot a store hosts,
so the store also keeps a *watermark*: ``floor`` means "every hosted slot
holds at least this iteration".  :meth:`CPUCheckpointStore.commit_all`
and :meth:`CPUCheckpointStore.reseed` raise it in O(1), reads take
``max(slot, floor)``, and every per-slot operation first folds the floor
into the slots, so the per-slot protocol and its checks are unchanged.

The stores of one cluster go one step further and share a single
watermark cell, their :class:`CPUStoreFleet`: a fleet commit or reseed
raises the shared floor once and touches only the stores that have
diverged from it (see the class for when a store diverges and rejoins),
so its cost follows the failed and lagging ranks, not the cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Optional

from repro.cluster.machine import Machine


@dataclass
class ReplicaSlot:
    """Double-buffered storage of one rank's checkpoint shard."""

    rank: int
    nbytes: float
    completed_iteration: Optional[int] = None
    in_progress_iteration: Optional[int] = None

    @property
    def reserved_bytes(self) -> float:
        """CPU memory held by this slot (two buffers)."""
        return 2 * self.nbytes


class CPUStoreFleet(Dict[int, "CPUCheckpointStore"]):
    """A cluster's CPU checkpoint stores by rank, sharing one watermark.

    A store is *in step* while every slot it hosts holds exactly
    :attr:`floor`: it is valid, its machine is healthy, it hosts its own
    rank's shard, it has no write open and no slot above the floor.  Its
    reads then answer ``floor`` and a fleet commit or reseed needs
    nothing from it but the raised floor.  Every other member *lags*: it
    keeps a private floor and is listed in ``_lagging``.  A store lags
    from the moment it joins, and diverges again before any per-slot
    operation, per-store :meth:`~CPUCheckpointStore.commit_all` or
    :meth:`~CPUCheckpointStore.reseed`, and on any transition of its
    machine out of ``HEALTHY`` (a hook on the machine, so stores of down
    or failed machines always lag).  Each fleet commit and reseed moves
    the lagging stores itself, then lets those that match the raised
    floor rejoin.

    Stores join by construction (``CPUCheckpointStore(machine,
    fleet=...)``) under their machine's rank; a newer store for the same
    rank takes the older one's place.  Iteration is in rank order of
    first arrival, which is rank order for a fleet built rank by rank.
    """

    def __init__(self, obs=None):
        super().__init__()
        #: the iteration every in-step store holds (None before any commit).
        self.floor: Optional[int] = None
        #: rank -> member that lags the floor.
        self._lagging: Dict[int, CPUCheckpointStore] = {}
        self._obs = obs
        #: one bound method shared by every member's machine.
        self._hook = self._on_transition

    def _admit(self, store: "CPUCheckpointStore") -> None:
        rank = store.machine.rank
        previous = self.get(rank)
        if previous is not None:
            previous._diverge()  # keeps its own state from here on
        self[rank] = store
        self._lagging[rank] = store
        # The hook holds the fleet, not the store, so a replaced store and
        # its dead machine form no reference cycle and are freed at once.
        store.machine.add_transition_hook(self._hook)

    def _on_transition(self, machine: Machine) -> None:
        store = self.get(machine.rank)
        if store is not None and store.machine is machine and not machine.is_healthy:
            store._diverge()

    def _raise_floor(self, iteration: int) -> None:
        if self.floor is None or self.floor < iteration:
            self.floor = iteration
        for rank, store in list(self._lagging.items()):
            if store._rejoins():
                del self._lagging[rank]

    def commit_all(self, iteration: int, assume_healthy: Collection[int] = ()) -> None:
        """:meth:`CPUCheckpointStore.commit_all` on every valid store whose
        machine is healthy or whose rank is in ``assume_healthy``.

        In-step stores are all writable and need only the raised floor,
        so with observability off this touches the lagging stores alone.
        With it on, every written store still counts its slots, in rank
        order, exactly as one bulk write per store would.  A store that
        raises (a write open on a slot it must write) stops the commit
        there, as the loop over stores would: lower ranks are written,
        higher ones are not.
        """
        obs = self._obs
        if obs is not None and obs.enabled:
            candidates = sorted(self.items())
        else:
            candidates = sorted(self._lagging.items())
        for rank, store in candidates:
            if store._in_step or (
                store.valid
                and (store.machine.is_healthy or rank in assume_healthy)
            ):
                try:
                    store._commit(iteration)
                except BaseException:
                    for later, member in self.items():
                        if later > rank:
                            member._diverge()
                    self._raise_floor(iteration)
                    raise
        self._raise_floor(iteration)

    def reseed(self, iteration: int) -> None:
        """:meth:`CPUCheckpointStore.reseed` on every valid store."""
        for store in list(self._lagging.values()):
            if store.valid:
                store._reseed(iteration)
        self._raise_floor(iteration)

    def lowest_own(self, excluded: Collection[int] = ()) -> Optional[int]:
        """The oldest iteration that a member rank outside ``excluded`` can
        reload from its own store, or None when one of them has none (or
        no member is outside ``excluded``).  Reads the lagging stores
        only: every in-step store answers the floor."""
        in_step = len(self) - len(self._lagging)
        in_step -= sum(
            1 for rank in excluded if rank in self and rank not in self._lagging
        )
        lowest = self.floor if in_step else None
        for rank, store in self._lagging.items():
            if rank in excluded:
                continue
            own = store.latest_complete(rank)
            if own is None:
                return None
            if lowest is None or own < lowest:
                lowest = own
        return lowest


class CPUCheckpointStore:
    """Checkpoint shards held in one machine's CPU memory.

    Parameters
    ----------
    machine:
        The owning machine; memory is accounted against it and contents are
        invalidated when its hardware fails (tracked via the machine epoch).
    obs:
        Optional :class:`repro.obs.Observability`; commits count bytes and
        hosted-replica gauges per machine.
    fleet:
        The :class:`CPUStoreFleet` the store joins under its machine's
        rank; a store built without one is the only member of its own.
    """

    def __init__(
        self, machine: Machine, obs=None, fleet: Optional[CPUStoreFleet] = None
    ):
        self.machine = machine
        self._epoch = machine.epoch
        self._slots: Dict[int, ReplicaSlot] = {}
        self._obs = obs
        #: every hosted slot holds at least this iteration (None: no floor);
        #: read only while the store lags its fleet.
        self._floor: Optional[int] = None
        #: hosted slots with a write in progress.
        self._writing = 0
        #: every hosted slot holds exactly the fleet's floor.
        self._in_step = False
        self.fleet = fleet if fleet is not None else CPUStoreFleet(obs)
        self.fleet._admit(self)

    def _update_hosted_gauge(self) -> None:
        if self._obs is None or not self._obs.enabled:
            return
        self._obs.metrics.gauge(
            "repro_cpu_ckpt_hosted_replicas",
            help="checkpoint shards hosted in this machine's CPU memory",
            labels={"machine": self.machine.machine_id},
        ).set(len(self._slots))

    # -- validity --------------------------------------------------------------

    @property
    def valid(self) -> bool:
        """Contents survive only while the hardware incarnation is unchanged."""
        return self.machine.live_epoch == self._epoch

    def _check_valid(self) -> None:
        if self.machine.live_epoch != self._epoch:
            raise RuntimeError(
                f"checkpoint store on {self.machine} is invalid "
                "(hardware failed or machine replaced)"
            )

    # -- the shared watermark ------------------------------------------------------

    def _diverge(self) -> None:
        """Leave the fleet's floor for a private copy of it."""
        if self._in_step:
            self._in_step = False
            self._floor = self.fleet.floor
            self.fleet._lagging[self.machine.rank] = self

    def _rejoins(self) -> bool:
        """Step back onto the fleet's floor if nothing sets this store apart."""
        floor = self.fleet.floor
        if (
            floor is None
            or self._floor != floor
            or self._writing
            or not self.machine.is_healthy
            or self.machine.live_epoch != self._epoch
            or self.machine.rank not in self._slots
        ):
            return False
        for slot in self._slots.values():
            if slot.completed_iteration is not None and slot.completed_iteration > floor:
                return False
        self._in_step = True
        return True

    def _fold_floor(self) -> None:
        """Write the watermark into the slots, before a per-slot operation."""
        self._diverge()
        floor = self._floor
        if floor is None:
            return
        for slot in self._slots.values():
            if slot.completed_iteration is None or slot.completed_iteration < floor:
                slot.completed_iteration = floor
        self._floor = None

    def _discard_write(self, slot: ReplicaSlot) -> None:
        if slot.in_progress_iteration is not None:
            slot.in_progress_iteration = None
            self._writing -= 1

    # -- slot management ----------------------------------------------------------

    def host_shard(self, rank: int, nbytes: float) -> ReplicaSlot:
        """Reserve double-buffered space for ``rank``'s shard."""
        self._check_valid()
        self._fold_floor()
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
        """Release the buffers for ``rank``'s shard."""
        self._check_valid()
        self._fold_floor()
        slot = self._slots.pop(rank, None)
        if slot is None:
            raise KeyError(f"rank {rank} not hosted on {self.machine}")
        self._discard_write(slot)
        self.machine.free_cpu_memory(slot.reserved_bytes)
        self._update_hosted_gauge()

    def hosted_ranks(self) -> List[int]:
        return sorted(self._slots)

    def slot(self, rank: int) -> ReplicaSlot:
        """``rank``'s slot with the floor folded in; a later bulk write or
        reseed updates the floor, not this object, until the next fold."""
        self._fold_floor()
        try:
            return self._slots[rank]
        except KeyError:
            raise KeyError(f"rank {rank} not hosted on {self.machine}") from None

    # -- the write protocol --------------------------------------------------------

    def begin_write(self, rank: int, iteration: int) -> None:
        """Start filling the in-progress buffer for ``rank`` at ``iteration``."""
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
        self._writing += 1

    def commit_write(self, rank: int, iteration: int) -> None:
        """Atomically promote the in-progress buffer to completed."""
        self._check_valid()
        slot = self.slot(rank)
        if slot.in_progress_iteration != iteration:
            raise RuntimeError(
                f"rank {rank}: commit for iteration {iteration} but in-progress "
                f"is {slot.in_progress_iteration}"
            )
        slot.completed_iteration = iteration
        slot.in_progress_iteration = None
        self._writing -= 1
        if self._obs is not None and self._obs.enabled:
            self._count_commits([slot.nbytes])

    def _count_commits(self, sizes: List[float]) -> None:
        """Record committed slots: one increment for the count (exact,
        integer-valued), one per slot for the bytes (the float sum
        accumulates in the same order as one commit at a time)."""
        metrics = self._obs.metrics
        metrics.counter(
            "repro_cpu_ckpt_commits_total",
            help="shard writes committed to CPU-memory stores",
        ).inc(len(sizes))
        bytes_total = metrics.counter(
            "repro_cpu_ckpt_bytes_total",
            help="bytes committed to CPU-memory checkpoint stores",
        )
        for nbytes in sizes:
            bytes_total.inc(nbytes)

    def abort_write(self, rank: int) -> None:
        """Discard an in-progress write (e.g. sender died mid-transfer)."""
        self._check_valid()
        self._discard_write(self.slot(rank))

    def corrupt_shard(self, rank: int) -> None:
        """Silently lose both buffers of ``rank``'s shard (chaos hook).

        Models CPU-memory corruption or loss *without* a machine failure:
        the machine stays healthy and keeps its buffers reserved, but the
        replica no longer counts as complete, so a recovery planned while
        the damage persists must fall back per Section 6 (persistent
        storage if no other complete replica survives).  The next
        committed write repairs the slot — ``begin_write`` accepts any
        iteration once ``completed_iteration`` is ``None``.
        """
        self._check_valid()
        slot = self.slot(rank)
        self._discard_write(slot)
        slot.completed_iteration = None

    def reseed(self, iteration: int) -> None:
        """Post-recovery state: every in-progress write is discarded and
        every hosted shard holds at least ``iteration`` (a replacement
        received it; a survivor kept it or something newer)."""
        self._check_valid()
        self._diverge()
        self._reseed(iteration)

    def _reseed(self, iteration: int) -> None:
        if self._writing:
            for slot in self._slots.values():
                slot.in_progress_iteration = None
            self._writing = 0
        if self._floor is None or self._floor < iteration:
            self._floor = iteration

    def commit_all(self, iteration: int) -> None:
        """Write ``iteration`` into every hosted slot that holds an older
        one (or none): the effect of ``begin_write`` + ``commit_write`` on
        each such slot in rank order, in O(1) with observability off.

        Raises exactly where that per-slot loop would (an invalid store
        with hosted slots, or a write in progress on a slot the loop
        would write), because in those cases it *is* that loop.
        """
        self._diverge()
        self._commit(iteration)

    def _commit(self, iteration: int) -> None:
        if self._in_step:
            # Every slot holds the fleet's floor, so a bulk write writes
            # all of them or none; the fleet raises the floor itself.
            if self._obs is not None and self._obs.enabled and self.fleet.floor < iteration:
                written = [slot.nbytes for _rank, slot in sorted(self._slots.items())]
                if written:
                    self._count_commits(written)
            return
        if self._writing or self.machine.live_epoch != self._epoch:
            for rank in sorted(self._slots):
                latest = self.latest_complete(rank)
                if latest is not None and latest >= iteration:
                    continue
                self.begin_write(rank, iteration)
                self.commit_write(rank, iteration)
            return
        floor = self._floor
        if floor is not None and floor >= iteration:
            return
        if self._obs is not None and self._obs.enabled:
            # The floor is below ``iteration`` here, so a slot is written
            # exactly when its own value is.
            written = [
                slot.nbytes
                for _rank, slot in sorted(self._slots.items())
                if slot.completed_iteration is None
                or slot.completed_iteration < iteration
            ]
            if written:
                self._count_commits(written)
        self._floor = iteration

    # -- reads ------------------------------------------------------------------------

    def latest_complete(self, rank: int) -> Optional[int]:
        """Latest committed iteration for ``rank``, or None.

        Returns None (rather than raising) when the store is invalid, since
        "nothing recoverable here" is the semantic a recovery planner wants.
        """
        if self._in_step:  # valid: a failing machine takes its store out of step
            return self.fleet.floor if rank in self._slots else None
        if self.machine.live_epoch != self._epoch:
            return None
        slot = self._slots.get(rank)
        if slot is None:
            return None
        completed, floor = slot.completed_iteration, self._floor
        if floor is None or (completed is not None and completed > floor):
            return completed
        return floor

    def __repr__(self) -> str:
        state = "valid" if self.valid else "INVALID"
        return f"<CPUCheckpointStore {self.machine.machine_id} {state} ranks={self.hosted_ranks()}>"
