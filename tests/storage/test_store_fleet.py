"""The shared-watermark fleet against one loop over per-slot stores.

A :class:`CPUStoreFleet` commits and reseeds by raising one shared floor
and moving only the stores that lag it.  The twin is the per-store loop
the policy ran before (``per_store_commit``, ``per_store_reseed``) over
``PerSlotStore``s, which have no watermark at all.  Both sides share the
same machines, so failures, restarts and replacements hit both.  Random
sequences of commits that skip down ranks, reseeds, corruptions,
replacements and per-slot writes must leave every ``latest_complete``
equal at every step, raise the same exceptions, produce the same
recovery plans and, with observability on, the same metric values and
timestamps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, P4D_24XLARGE
from repro.core.placement import mixed_placement
from repro.core.recovery import UnrecoverableError, plan_recovery
from repro.failures import FailureType
from repro.obs import Observability
from repro.storage import CPUCheckpointStore, CPUStoreFleet, PersistentStore
from tests.reference.planner import per_rank_plan_recovery
from tests.reference.stores import (
    PerSlotStore,
    per_slot_commit_all,
    per_store_commit,
    per_store_reseed,
)

N = 6
RANKS = st.integers(0, N - 1)
ITERATIONS = st.integers(0, 12)
#: fractional sizes make the float bytes counter's sum order-sensitive.
SIZE = 0.7

operations = st.one_of(
    st.tuples(st.just("commit"), ITERATIONS, st.sets(RANKS, max_size=3)),
    st.tuples(st.just("commit"), ITERATIONS, st.just(frozenset())),
    st.tuples(st.just("reseed"), ITERATIONS),
    st.tuples(st.just("corrupt"), RANKS, RANKS),
    st.tuples(st.just("begin"), RANKS, RANKS, ITERATIONS),
    st.tuples(st.just("commit_write"), RANKS, RANKS, ITERATIONS),
    st.tuples(st.just("abort"), RANKS, RANKS),
    st.tuples(st.just("store_bulk"), RANKS, ITERATIONS),
    st.tuples(st.just("store_reseed"), RANKS, ITERATIONS),
    st.tuples(st.just("process_down"), RANKS),
    st.tuples(st.just("restart"), RANKS),
    st.tuples(st.just("fail"), RANKS),
    st.tuples(st.just("replace"), RANKS),
)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Pair:
    """A fleet and its per-store twin on one cluster."""

    def __init__(self, obs_on: bool):
        self.clock = _Clock()
        self.cluster = Cluster(N, P4D_24XLARGE)
        self.placement = mixed_placement(N, 2)
        self.fast_obs = Observability(clock=self.clock) if obs_on else None
        self.slow_obs = Observability(clock=self.clock) if obs_on else None
        self.fleet = CPUStoreFleet(obs=self.fast_obs)
        self.twin: Dict[int, PerSlotStore] = {}
        for machine in self.cluster:
            self.build(machine.rank)

    def build(self, rank: int) -> None:
        machine = self.cluster.machine(rank)
        fast = CPUCheckpointStore(machine, obs=self.fast_obs, fleet=self.fleet)
        slow = self.twin[rank] = PerSlotStore(machine, obs=self.slow_obs)
        for owner in self.placement.hosted_by(rank):
            fast.host_shard(owner, SIZE)
            slow.host_shard(owner, SIZE)

    def apply(self, op) -> List[Optional[type]]:
        """Run one operation on both sides; the exception types raised."""
        kind, *args = op
        if kind == "commit":
            iteration, assume = args
            return [
                _outcome(self.fleet.commit_all, iteration, tuple(sorted(assume))),
                _outcome(per_store_commit, self.twin, self.cluster, iteration, assume),
            ]
        if kind == "reseed":
            return [
                _outcome(self.fleet.reseed, args[0]),
                _outcome(per_store_reseed, self.twin, args[0]),
            ]
        if kind in ("corrupt", "begin", "commit_write", "abort"):
            rank, owner, *rest = args
            method = {
                "corrupt": "corrupt_shard",
                "begin": "begin_write",
                "commit_write": "commit_write",
                "abort": "abort_write",
            }[kind]
            return [
                _outcome(getattr(self.fleet[rank], method), owner, *rest),
                _outcome(getattr(self.twin[rank], method), owner, *rest),
            ]
        if kind == "store_bulk":
            rank, iteration = args
            return [
                _outcome(self.fleet[rank].commit_all, iteration),
                _outcome(per_slot_commit_all, self.twin[rank], iteration),
            ]
        if kind == "store_reseed":
            rank, iteration = args
            return [
                _outcome(self.fleet[rank].reseed, iteration),
                _outcome(self.twin[rank].reseed, iteration),
            ]
        machine = self.cluster.machine(args[0])
        if kind == "process_down":
            outcome = _outcome(machine.mark_process_down)
        elif kind == "restart":
            outcome = _outcome(machine.restart_process)
        elif kind == "fail":
            outcome = _outcome(machine.mark_failed)
        else:
            if machine.hardware_alive:
                return [None, None]
            self.cluster.replace(args[0])
            self.build(args[0])
            outcome = None
        return [outcome, outcome]


def _outcome(call, *args) -> Optional[type]:
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


def _plan(planner, pair: Pair, stores, failure_type, failed):
    persistent = PersistentStore(N)
    for rank in range(N):
        persistent.put_shard(rank, 1)
    try:
        return planner(pair.placement, stores, persistent, failure_type, failed)
    except UnrecoverableError as exc:
        return type(exc)


def _metric_values(obs: Observability) -> List[tuple]:
    return [
        (family.name, key, child.value, child.last_updated)
        for family in obs.metrics.families()
        for key, child in family.children.items()
    ]


@settings(max_examples=400, deadline=None)
@given(
    ops=st.lists(operations, min_size=1, max_size=40),
    obs_on=st.booleans(),
    failed=st.sets(RANKS, max_size=3),
)
def test_fleet_matches_per_store_loops(ops, obs_on, failed):
    pair = Pair(obs_on)
    ops = [("commit", 0, frozenset())] + ops
    for step, op in enumerate(ops):
        pair.clock.now = float(step)
        fast, slow = pair.apply(op)
        assert fast == slow, op
        for rank in range(N):
            store, twin = pair.fleet[rank], pair.twin[rank]
            assert store.valid == twin.valid
            for owner in twin.hosted_ranks():
                assert store.latest_complete(owner) == twin.latest_complete(owner), (
                    op,
                    rank,
                    owner,
                )
        for failure_type in FailureType:
            assert _plan(
                plan_recovery, pair, pair.fleet, failure_type, sorted(failed)
            ) == _plan(per_rank_plan_recovery, pair, pair.twin, failure_type, sorted(failed))
        if obs_on:
            assert _metric_values(pair.fast_obs) == _metric_values(pair.slow_obs)


def test_in_step_stores_need_no_visit():
    pair = Pair(obs_on=False)
    pair.fleet.commit_all(1)
    assert not pair.fleet._lagging
    pair.cluster.machine(2).mark_process_down()
    assert list(pair.fleet._lagging) == [2]
    pair.fleet.commit_all(2)
    assert pair.fleet[2].latest_complete(2) == 1
    assert pair.fleet[0].latest_complete(0) == 2
    pair.cluster.machine(2).restart_process()
    pair.fleet.reseed(2)
    assert not pair.fleet._lagging
    assert pair.fleet[2].latest_complete(2) == 2
