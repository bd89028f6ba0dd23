"""The fleet recovery planner against the per-rank planner.

``plan_recovery`` reads the survivors' own replicas off the fleet's
shared floor and its lagging stores, copies its retrievals from prebuilt
uniform tuples and allocates entries only for failed ranks.
``per_rank_plan_recovery`` (in ``tests.reference.planner``) reads every
rank's store and builds one ``ShardRetrieval`` per rank per plan; it is
kept as the executable specification.  Over random placements, store
states (in-step, stale, corrupted and invalid stores among them), failed
sets and failure types, both must return equal plans or raise the same
exception.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, P4D_24XLARGE
from repro.core.placement import (
    Placement,
    group_placement,
    mixed_placement,
    ring_placement,
    topology_aware_placement,
)
from repro.core.recovery import (
    RecoveryPlan,
    RetrievalSource,
    ShardRetrieval,
    UnrecoverableError,
    plan_recovery,
    uniform_retrievals,
)
from repro.failures import FailureType
from repro.storage import CPUCheckpointStore, CPUStoreFleet, PersistentStore
from repro.units import GB
from tests.reference.planner import per_rank_plan_recovery

# -- random fleets --------------------------------------------------------------


@st.composite
def placements(draw) -> Placement:
    kind = draw(st.sampled_from(["mixed", "group", "ring", "topology"]))
    m = draw(st.integers(1, 3))
    if kind == "group":
        return group_placement(m * draw(st.integers(1, 8)), m)
    n = draw(st.integers(m, 24))
    if kind == "ring":
        return ring_placement(n, m)
    if kind == "mixed":
        return mixed_placement(n, m)
    num_domains = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(0, num_domains - 1), min_size=n, max_size=n))
    domains = [
        [rank for rank in range(n) if owner[rank] == domain]
        for domain in range(num_domains)
    ]
    return topology_aware_placement(n, m, [d for d in domains if d])


#: damage done to single stores after the fleet-wide commit history.
STORE_DAMAGE = st.sampled_from(
    ["stale", "stale", "corrupt_one", "corrupt_all", "open_write", "fail", "down"]
)


@st.composite
def fleets(draw):
    placement = draw(placements())
    n = placement.num_machines
    cluster = Cluster(n, P4D_24XLARGE)
    stores = CPUStoreFleet()
    for machine in cluster:
        store = CPUCheckpointStore(machine, fleet=stores)
        for owner in placement.hosted_by(machine.rank):
            store.host_shard(owner, 1 * GB)
    # A fleet-wide history: bulk commits and reseeds reach every store,
    # through the fleet's shared floor or one store at a time.
    history = st.tuples(st.booleans(), st.booleans(), st.integers(0, 12))
    for is_reseed, shared, iteration in draw(
        st.lists(history, min_size=1, max_size=4)
    ):
        if shared:
            if is_reseed:
                stores.reseed(iteration)
            else:
                stores.commit_all(iteration)
            continue
        for store in stores.values():
            if is_reseed:
                store.reseed(iteration)
            else:
                store.commit_all(iteration)
    damage = st.tuples(st.integers(0, n - 1), STORE_DAMAGE)
    for rank, action in draw(st.lists(damage, max_size=4)):
        store = stores[rank]
        if not store.valid:
            continue
        hosted = store.hosted_ranks()
        if action == "stale":
            # One replica lags its peers: lost, then rewritten older.
            owner = draw(st.sampled_from(hosted))
            store.corrupt_shard(owner)
            iteration = draw(st.integers(0, 12))
            store.begin_write(owner, iteration)
            store.commit_write(owner, iteration)
        elif action == "corrupt_one":
            store.corrupt_shard(draw(st.sampled_from(hosted)))
        elif action == "corrupt_all":
            for owner in hosted:
                store.corrupt_shard(owner)
        elif action == "open_write":
            owner = draw(st.sampled_from(hosted))
            iteration = (store.latest_complete(owner) or 0) + 1
            store.abort_write(owner)
            store.begin_write(owner, iteration)
            if draw(st.booleans()):
                store.commit_write(owner, iteration)
        elif action == "fail":
            cluster.machine(rank).mark_failed()
        else:
            cluster.machine(rank).mark_process_down()
    persistent = PersistentStore(n)
    persisted = draw(st.one_of(st.none(), st.integers(0, 12)))
    if persisted is not None:
        for rank in range(n):
            persistent.put_shard(rank, persisted)
    # The failed set may or may not include the machines that really
    # died: the planner must not care either way.
    failed = draw(st.sets(st.integers(0, n - 1), max_size=n))
    if draw(st.booleans()):
        failed |= set(cluster.down_ranks())
    failure_type = draw(st.sampled_from([FailureType.SOFTWARE, FailureType.HARDWARE]))
    return placement, stores, persistent, failure_type, sorted(failed)


def _outcome(planner, *args):
    try:
        return planner(*args)
    except UnrecoverableError as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(fleet=fleets())
def test_shared_list_planner_matches_per_rank_planner(fleet):
    expected = _outcome(per_rank_plan_recovery, *fleet)
    plan = _outcome(plan_recovery, *fleet)
    assert plan == expected
    if isinstance(plan, RecoveryPlan):
        assert len(plan.retrievals) == len(expected.retrievals)
        for ours, theirs in zip(plan.retrievals, expected.retrievals):
            assert ours == theirs


def test_plans_do_not_share_their_lists():
    first = uniform_retrievals(8, RetrievalSource.PERSISTENT)
    assert uniform_retrievals(8, RetrievalSource.PERSISTENT) is first
    cluster = Cluster(8, P4D_24XLARGE)
    placement = mixed_placement(8, 2)
    stores = CPUStoreFleet()
    for machine in cluster:
        store = CPUCheckpointStore(machine, fleet=stores)
        for owner in placement.hosted_by(machine.rank):
            store.host_shard(owner, 1 * GB)
    stores.commit_all(3)
    persistent = PersistentStore(8)
    cluster.machine(2).mark_failed()
    plan = plan_recovery(placement, stores, persistent, FailureType.HARDWARE, [2])
    assert plan.retrievals[2].source is RetrievalSource.REMOTE_CPU
    plan.retrievals[0] = None
    local = uniform_retrievals(8, RetrievalSource.LOCAL_CPU)
    assert local[0] == ShardRetrieval(rank=0, source=RetrievalSource.LOCAL_CPU)
    assert local[2].source is RetrievalSource.LOCAL_CPU
