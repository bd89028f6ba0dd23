"""Recovery planner and cost model (Section 6)."""

import pytest

from repro.cluster import Cluster, P4D_24XLARGE
from repro.core.placement import mixed_placement
from repro.core.recovery import (
    RecoveryCostModel,
    RetrievalSource,
    UnrecoverableError,
    plan_recovery,
)
from repro.failures import FailureType
from repro.storage import CPUCheckpointStore, CPUStoreFleet, PersistentStore
from repro.training import GPT2_100B, ShardingSpec
from repro.units import MINUTE, gbps


def build_state(n=4, m=2, committed=50, persistent_iteration=10):
    from repro.training import GPT2_40B

    cluster = Cluster(n, P4D_24XLARGE)
    placement = mixed_placement(n, m)
    # 40B keeps shard x 2 buffers x m within a p4d's 1152 GB at n=4.
    spec = ShardingSpec(GPT2_40B, n)
    stores = CPUStoreFleet()
    for machine in cluster:
        store = CPUCheckpointStore(machine, fleet=stores)
        for owner in placement.hosted_by(machine.rank):
            store.host_shard(owner, spec.checkpoint_bytes_per_machine)
            store.begin_write(owner, committed)
            store.commit_write(owner, committed)
    persistent = PersistentStore(n)
    for rank in range(n):
        persistent.put_shard(rank, persistent_iteration)
    return cluster, placement, stores, persistent


class TestPlanner:
    def test_software_failure_recovers_locally(self):
        cluster, placement, stores, persistent = build_state()
        cluster.machine(1).mark_process_down()
        plan = plan_recovery(placement, stores, persistent, FailureType.SOFTWARE, [1])
        assert plan.from_cpu_memory
        assert plan.rollback_iteration == 50
        assert all(r.source is RetrievalSource.LOCAL_CPU for r in plan.retrievals)

    def test_single_hardware_failure_fetches_from_peer(self):
        cluster, placement, stores, persistent = build_state()
        cluster.machine(1).mark_failed()
        plan = plan_recovery(placement, stores, persistent, FailureType.HARDWARE, [1])
        assert plan.from_cpu_memory
        sources = plan.sources
        assert sources[1] is RetrievalSource.REMOTE_CPU
        retrieval = next(r for r in plan.retrievals if r.rank == 1)
        assert retrieval.peer == 0  # group peer of rank 1
        assert sources[0] is RetrievalSource.LOCAL_CPU

    def test_cross_group_double_failure_recoverable(self):
        cluster, placement, stores, persistent = build_state()
        for rank in (1, 2):
            cluster.machine(rank).mark_failed()
        plan = plan_recovery(placement, stores, persistent, FailureType.HARDWARE, [1, 2])
        assert plan.from_cpu_memory
        assert plan.sources[1] is RetrievalSource.REMOTE_CPU
        assert plan.sources[2] is RetrievalSource.REMOTE_CPU

    def test_group_wipe_falls_back_to_persistent(self):
        # Case 2 (Section 6.2): both members of group {0,1} fail.
        cluster, placement, stores, persistent = build_state()
        for rank in (0, 1):
            cluster.machine(rank).mark_failed()
        plan = plan_recovery(placement, stores, persistent, FailureType.HARDWARE, [0, 1])
        assert not plan.from_cpu_memory
        assert plan.rollback_iteration == 10  # the stale persistent ckpt
        assert all(r.source is RetrievalSource.PERSISTENT for r in plan.retrievals)

    def test_persistent_fallback_without_any_checkpoint_raises(self):
        cluster, placement, stores, _ = build_state()
        empty = PersistentStore(4)
        for rank in (0, 1):
            cluster.machine(rank).mark_failed()
        with pytest.raises(UnrecoverableError):
            plan_recovery(placement, stores, empty, FailureType.HARDWARE, [0, 1])

    def test_rollback_is_min_across_needed_stores(self):
        cluster, placement, stores, persistent = build_state()
        # Peer 0 holds rank 1's shard one iteration behind.
        stores[0].begin_write(1, 51)  # in-progress, invisible
        cluster.machine(1).mark_failed()
        plan = plan_recovery(placement, stores, persistent, FailureType.HARDWARE, [1])
        assert plan.rollback_iteration == 50


class TestCostModel:
    @pytest.fixture
    def spec(self):
        return ShardingSpec(GPT2_100B, 16)

    def test_serialization_two_replicas_162s(self, spec):
        cost = RecoveryCostModel()
        assert cost.serialization_time(spec, 2) == pytest.approx(162, rel=0.02)

    def test_remote_cpu_retrieval_under_3s(self, spec):
        # Section 7.2: "the retrieval time is less than three seconds".
        cost = RecoveryCostModel()
        assert cost.remote_cpu_retrieval_time(spec, gbps(400)) < 3.0

    def test_persistent_retrieval_dominated_by_20gbps_pipe(self, spec):
        cost = RecoveryCostModel()
        time = cost.persistent_retrieval_time(spec, gbps(20))
        transfer_only = spec.checkpoint_bytes_total / gbps(20)
        assert time > transfer_only
        assert time == pytest.approx(transfer_only + 81, rel=0.02)

    def test_software_recovery_roughly_7_minutes(self, spec):
        # Section 7.3: "around 7 minutes for software failures".
        cost = RecoveryCostModel()
        total = cost.software_recovery_overhead(spec, num_replicas=2)
        assert 6 * MINUTE <= total <= 8.5 * MINUTE

    def test_hardware_recovery_roughly_12_minutes(self, spec):
        # Section 7.3: "12 minutes for hardware failures" (ASG ~5.5 min).
        cost = RecoveryCostModel()
        total = cost.hardware_recovery_overhead(
            spec, num_replicas=2,
            replacement_delay=5.5 * MINUTE, network_bandwidth=gbps(400),
        )
        assert 10 * MINUTE <= total <= 14 * MINUTE

    def test_standby_cuts_hardware_overhead_to_software_level(self, spec):
        cost = RecoveryCostModel()
        with_standby = cost.hardware_recovery_overhead(
            spec, 2, replacement_delay=10.0, network_bandwidth=gbps(400)
        )
        software = cost.software_recovery_overhead(spec, 2)
        assert with_standby == pytest.approx(software, abs=15)
