"""Host-independent work gate for fleet commits and recovery plans.

At 1024 machines a GEMINI commit must not run a ``begin_write``/
``commit_write`` pair per (owner, storer), and a recovery plan must copy
the shared uniform retrieval list instead of building a
``ShardRetrieval`` per rank.  Beyond that, every commit, reseed and plan
must touch only the stores that lag the fleet's shared floor and the
failed ranks' storers: at most ``c * (failed + lagging)`` store calls,
never one per rank.  The run below fails a whole rack (hardware) and
then a few processes (software); the gate counts calls, so it reads no
clock and cannot flake.
"""

import pytest

from repro.cluster.catalog import get_cluster_spec
from repro.core import recovery
from repro.core.kernel import SimulatedTrainingSystem
from repro.core.placement import Placement
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.core.recovery import RetrievalSource, ShardRetrieval, uniform_retrievals
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.storage.cpu_memory import CPUCheckpointStore, CPUStoreFleet
from repro.training import GPT2_100B
from repro.units import HOUR


def _counting(monkeypatch, owner, name, counts, key, only_when=None):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if only_when is None or only_when():
            counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture(autouse=True)
def _fresh_lists():
    uniform_retrievals.cache_clear()
    yield
    uniform_retrievals.cache_clear()


def test_fleet_commits_and_plans_do_no_per_shard_work(monkeypatch):
    spec = get_cluster_spec("a3mega-fleet1k")
    n = spec.num_machines
    assert n == 1024
    policy = GeminiPolicy(GeminiConfig(use_agents=False, placement_strategy="topology"))

    counts = {}
    committing = []
    original_commit = GeminiPolicy.commit_checkpoint

    def commit(self, *args, **kwargs):
        committing.append(True)
        try:
            counts["commits"] = counts.get("commits", 0) + 1
            return original_commit(self, *args, **kwargs)
        finally:
            committing.pop()

    monkeypatch.setattr(GeminiPolicy, "commit_checkpoint", commit)

    def in_commit():
        return bool(committing)

    _counting(monkeypatch, CPUCheckpointStore, "begin_write", counts, "begin_write")
    _counting(monkeypatch, CPUCheckpointStore, "commit_write", counts, "commit_write")
    _counting(monkeypatch, Placement, "storers_of", counts, "storers_of", in_commit)
    _counting(monkeypatch, CPUCheckpointStore, "_commit", counts, "bulk_writes", in_commit)

    # Store calls per fleet operation, against the failed and lagging
    # ranks when the operation starts.
    touches = []
    operation = []
    for name in ("latest_complete", "_commit", "_reseed", "_rejoins"):
        _counting(
            monkeypatch,
            CPUCheckpointStore,
            name,
            counts,
            "touches",
            lambda: bool(operation),
        )

    def measured(owner, name, failed_of):
        original = getattr(owner, name)

        def run(self, *args, **kwargs):
            fleet = self if isinstance(self, CPUStoreFleet) else self.stores
            before = counts.get("touches", 0)
            lagging = len(fleet._lagging)
            operation.append(name)
            try:
                return original(self, *args, **kwargs)
            finally:
                operation.pop()
                touches.append(
                    (name, counts.get("touches", 0) - before, failed_of(args) + lagging)
                )

        monkeypatch.setattr(owner, name, run)

    measured(CPUStoreFleet, "commit_all", lambda args: 0)
    measured(CPUStoreFleet, "reseed", lambda args: 0)
    measured(GeminiPolicy, "plan_recovery", lambda args: len(args[1]))

    # Build the shared lists before counting constructions: they are made
    # once per (size, source), not per plan.
    for source in RetrievalSource:
        uniform_retrievals(n, source)
    _counting(monkeypatch, ShardRetrieval, "__init__", counts, "retrievals")
    plans = []
    original_plan = recovery.plan_recovery

    def plan_and_keep(*args, **kwargs):
        plan = original_plan(*args, **kwargs)
        plans.append(plan)
        return plan

    monkeypatch.setattr("repro.core.policy.plan_recovery", plan_and_keep)

    system = SimulatedTrainingSystem(
        GPT2_100B,
        spec.primary_instance_type(),
        n,
        policy,
        num_standby=16,
        cluster_spec=spec,
    )
    rack = list(spec.fault_domains()[5])
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [
            FailureEvent(1000.0, FailureType.HARDWARE, rack),
            FailureEvent(3000.0, FailureType.SOFTWARE, [7, 300, 901]),
        ],
        system.inject_failure,
    )
    result = system.run(2 * HOUR)

    assert [record.source for record in result.recoveries] == [
        RetrievalSource.REMOTE_CPU,
        RetrievalSource.LOCAL_CPU,
    ]
    assert counts["commits"] > 2
    assert counts.get("begin_write", 0) == 0
    assert counts.get("commit_write", 0) == 0
    assert counts.get("storers_of", 0) == 0
    # Per-store bulk writes only for stores that lag the shared floor.
    assert counts["bulk_writes"] <= counts["commits"] * len(rack)
    kinds = {name for name, _, _ in touches}
    assert kinds == {"commit_all", "reseed", "plan_recovery"}
    # Every commit, reseed and plan touches at most c * (failed +
    # lagging) stores (c = replicas + 1: a lagging store is moved and
    # checked for rejoining; a failed rank reads up to its storers).
    c = policy.config.num_replicas + 1
    for name, touched, bound in touches:
        assert touched <= c * bound, (name, touched, bound)
    # Only the first commit meets every store lagging (they were just
    # built); after it, no operation comes near one call per rank.
    assert touches[0][0] == "commit_all" and touches[0][2] == n
    assert max(touched for _, touched, _ in touches[1:]) < n // 8
    remote = sum(
        1
        for plan in plans
        for retrieval in plan.retrievals
        if retrieval.source is RetrievalSource.REMOTE_CPU
    )
    assert [len(plan.retrievals) for plan in plans] == [n] * len(result.recoveries)
    assert remote == len(rack)
    assert counts.get("retrievals", 0) == remote
