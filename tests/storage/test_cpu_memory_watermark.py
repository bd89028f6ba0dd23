"""The watermark checkpoint store against the per-slot store it replaced.

``CPUCheckpointStore`` answers bulk commits and reseeds with a store-wide
``floor`` instead of touching every slot.  ``PerSlotStore`` below is the
store before the watermark, kept verbatim as the executable
specification, and ``per_slot_commit_all`` is the per-(owner, storer)
commit loop a bulk write replaces.  Random operation sequences, machine
transitions included, must leave both stores indistinguishable: the same
reads, the same slot contents, the same exceptions, and the same metric
values and timestamps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, P4D_24XLARGE
from repro.obs import Observability
from repro.storage import CPUCheckpointStore
from repro.storage.cpu_memory import ReplicaSlot
from repro.units import GB

# -- slow twin: the per-slot store ---------------------------------------------


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


# -- random operation sequences ------------------------------------------------

RANKS = range(5)
ITERATIONS = st.integers(0, 9)
#: fractional sizes make the float bytes counter's sum order-sensitive.
SIZES = st.sampled_from([0.0, 0.1, 0.2, 0.7, 7.7 * GB + 0.3, 400 * GB])
#: machine transitions; a hardware failure ends every later write, so it
#: is drawn rarely.
TRANSITIONS = st.sampled_from(["process_down", "restart"] * 6 + ["fail"])

operations = st.one_of(
    st.tuples(st.just("host"), st.sampled_from(RANKS), SIZES),
    st.tuples(st.just("drop"), st.sampled_from(RANKS)),
    st.tuples(st.just("begin"), st.sampled_from(RANKS), ITERATIONS),
    st.tuples(st.just("commit"), st.sampled_from(RANKS), ITERATIONS),
    st.tuples(st.just("abort"), st.sampled_from(RANKS)),
    st.tuples(st.just("bulk"), ITERATIONS),
    st.tuples(st.just("bulk"), ITERATIONS),
    st.tuples(st.just("corrupt"), st.sampled_from(RANKS)),
    st.tuples(st.just("reseed"), ITERATIONS),
    st.tuples(st.just("slots")),
    st.tuples(TRANSITIONS),
)
#: slots hosted before the random operations start.
initial_slots = st.dictionaries(
    st.sampled_from(RANKS), st.sampled_from([0.1, 0.2, 0.7, 7.7 * GB + 0.3]), max_size=5
)


def _apply(store, machine: Machine, op) -> Optional[type]:
    """Run one operation; returns the exception type it raised, if any."""
    kind, *args = op
    try:
        if kind == "host":
            store.host_shard(args[0], args[1])
        elif kind == "drop":
            store.drop_shard(args[0])
        elif kind == "begin":
            store.begin_write(args[0], args[1])
        elif kind == "commit":
            store.commit_write(args[0], args[1])
        elif kind == "abort":
            store.abort_write(args[0])
        elif kind == "bulk":
            if isinstance(store, PerSlotStore):
                per_slot_commit_all(store, args[0])
            else:
                store.commit_all(args[0])
        elif kind == "corrupt":
            store.corrupt_shard(args[0])
        elif kind == "reseed":
            store.reseed(args[0])
        elif kind == "slots":
            return None  # compared by the caller, which folds the floor
        elif kind == "process_down":
            machine.mark_process_down()
        elif kind == "restart":
            machine.restart_process()
        else:
            machine.mark_failed()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


def _slot_values(store) -> List[tuple]:
    values = []
    for rank in store.hosted_ranks():
        slot = store.slot(rank)
        values.append(
            (slot.rank, slot.nbytes, slot.completed_iteration, slot.in_progress_iteration)
        )
    return values


def _metric_values(obs: Observability) -> List[tuple]:
    return [
        (family.name, key, child.value, child.last_updated)
        for family in obs.metrics.families()
        for key, child in family.children.items()
    ]


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _pair(obs_on: bool):
    clock = _Clock()
    built = []
    for store_class in (PerSlotStore, CPUCheckpointStore):
        machine = Machine("m0", 0, P4D_24XLARGE)
        obs = Observability(clock=clock) if obs_on else None
        built.append((store_class(machine, obs=obs), machine, obs))
    return clock, built


@settings(max_examples=500, deadline=None)
@given(
    hosted=initial_slots,
    ops=st.lists(operations, max_size=40),
    obs_on=st.booleans(),
)
def test_watermark_store_matches_per_slot_store(hosted, ops, obs_on):
    clock, ((slow, slow_machine, slow_obs), (fast, fast_machine, fast_obs)) = _pair(
        obs_on
    )
    ops = [("host", rank, nbytes) for rank, nbytes in hosted.items()] + ops
    for step, op in enumerate(ops):
        clock.now = float(step)
        assert _apply(fast, fast_machine, op) == _apply(slow, slow_machine, op), op
        assert fast.valid == slow.valid
        assert fast.hosted_ranks() == slow.hosted_ranks()
        for rank in RANKS:
            assert fast.latest_complete(rank) == slow.latest_complete(rank), (op, rank)
        assert fast_machine.cpu_memory_used == slow_machine.cpu_memory_used
        if op[0] == "slots":
            assert _slot_values(fast) == _slot_values(slow)
        if obs_on:
            assert _metric_values(fast_obs) == _metric_values(slow_obs)
    assert _slot_values(fast) == _slot_values(slow)


# -- the watermark's own contract ----------------------------------------------


@pytest.fixture
def store():
    store = CPUCheckpointStore(Machine("m0", 0, P4D_24XLARGE))
    for rank in (0, 1, 2):
        store.host_shard(rank, 10 * GB)
    return store


def test_bulk_write_touches_no_slot(store):
    store.begin_write(2, 9)
    store.commit_write(2, 9)
    store.commit_all(5)
    assert [store.latest_complete(rank) for rank in (0, 1, 2)] == [5, 5, 9]
    # The slots still hold their own values until a per-slot call folds
    # the floor in.
    assert store._slots[0].completed_iteration is None
    assert store.slot(0).completed_iteration == 5
    assert store._slots[0].completed_iteration == 5


def test_corruption_after_bulk_write_is_visible(store):
    store.commit_all(4)
    store.corrupt_shard(1)
    assert [store.latest_complete(rank) for rank in (0, 1, 2)] == [4, None, 4]
    store.commit_all(5)
    assert store.latest_complete(1) == 5


def test_shard_hosted_after_bulk_write_starts_empty(store):
    store.commit_all(4)
    store.host_shard(3, 10 * GB)
    assert store.latest_complete(3) is None
    assert store.latest_complete(0) == 4


def test_bulk_write_over_open_write_raises_like_per_slot_loop(store):
    store.begin_write(1, 3)
    with pytest.raises(RuntimeError):
        store.commit_all(3)
    # The loop wrote rank 0 before it reached rank 1's open write.
    assert store.latest_complete(0) == 3
    assert store.latest_complete(2) is None


def test_bulk_write_to_invalid_store_raises(store):
    store.machine.mark_failed()
    with pytest.raises(RuntimeError):
        store.commit_all(1)
