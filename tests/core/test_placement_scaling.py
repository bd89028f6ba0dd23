"""Host-independent scaling gate for fleet-scale replica bookkeeping.

A 1024-machine GEMINI kernel is built from a placement whose
``replica_sets`` tuple counts how often it is iterated, then one whole
rack fails and is recovered.  Every per-rank query must be answered from
the placement's indices: the replica sets are scanned once, when the
indices are built, however many ``hosted_by`` calls the run makes.
Nothing here reads a clock, so the gate cannot flake.
"""

import dataclasses

import pytest

from repro.cluster.catalog import get_cluster_spec
from repro.core.kernel import SimulatedTrainingSystem
from repro.core.placement import Placement, topology_aware_placement
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.core.recovery import RetrievalSource
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.training import GPT2_100B
from repro.units import HOUR


class CountingSets(tuple):
    """A replica-set tuple that counts full scans (``__iter__`` calls)."""

    scans = 0

    def __iter__(self):
        type(self).scans += 1
        return super().__iter__()


@pytest.fixture
def counting_sets():
    CountingSets.scans = 0
    yield CountingSets
    CountingSets.scans = 0


def test_rack_failure_recovery_scans_replica_sets_once(monkeypatch, counting_sets):
    spec = get_cluster_spec("a3mega-fleet1k")
    n = spec.num_machines
    assert n == 1024
    base = topology_aware_placement(n, 2, spec.fault_domains())
    placement = dataclasses.replace(
        base, replica_sets=counting_sets(base.replica_sets)
    )

    hosted_by_calls = []
    original = Placement.hosted_by

    def counted(self, rank):
        hosted_by_calls.append(rank)
        return original(self, rank)

    monkeypatch.setattr(Placement, "hosted_by", counted)

    policy = GeminiPolicy(GeminiConfig(use_agents=False), placement=placement)
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
        [FailureEvent(1000.0, FailureType.HARDWARE, rack)],
        system.inject_failure,
    )
    result = system.run(1 * HOUR)

    (record,) = result.recoveries
    assert record.failed_ranks == sorted(rack)
    assert record.source is RetrievalSource.REMOTE_CPU  # every group spans racks
    # build() asks once per machine, recovery once per replaced rank in
    # two phases: all O(m) lookups, none a scan.
    assert len(hosted_by_calls) >= n + 2 * len(rack)
    assert counting_sets.scans <= 1, f"{counting_sets.scans} replica-set scans"
