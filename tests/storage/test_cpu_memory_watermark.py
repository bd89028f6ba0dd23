"""The watermark checkpoint store against the per-slot store it replaced.

``CPUCheckpointStore`` answers bulk commits and reseeds with a store-wide
``floor`` instead of touching every slot.  ``PerSlotStore`` (in
``tests.reference.stores``) is the store before the watermark, kept
verbatim as the executable specification, and ``per_slot_commit_all`` is
the per-(owner, storer) commit loop a bulk write replaces.  Random
operation sequences, machine transitions included, must leave both
stores indistinguishable: the same reads, the same slot contents, the
same exceptions, and the same metric values and timestamps.
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, P4D_24XLARGE
from repro.obs import Observability
from repro.storage import CPUCheckpointStore
from repro.units import GB
from tests.reference.stores import PerSlotStore, per_slot_commit_all

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
