"""Host-independent work gate for the agent control plane.

A 16-machine ``GeminiSystem`` runs one simulated hour with its worker
and root agents on, and the root machine fails at 20 minutes.  Every
heartbeat is a KV-store ``put`` under ``gemini/health/``, which no watch
covers, so none may build a ``WatchEvent``: only the election key's
mutations may.  The event and revision totals are pinned so a change
that makes events cheaper cannot quietly change how many there are.
Nothing here reads a clock, so the gate cannot flake.
"""

import pytest

import repro.kvstore.store as store_module
from repro.cluster import P4D_24XLARGE
from repro.core.agents import HEALTH_PREFIX, ROOT_ELECTION_KEY
from repro.core.system import GeminiSystem
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.kvstore import KVStore
from repro.training import GPT2_100B
from repro.units import HOUR

#: totals of this run at the commit that introduced the gate.
PINNED_EVENTS = 45642
PINNED_REVISION = 11405


@pytest.fixture
def counted(monkeypatch):
    """Keys of every WatchEvent built and of every store mutation."""
    built, mutated = [], []

    class CountingWatchEvent(store_module.WatchEvent):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.key)

    put, delete = KVStore.put, KVStore._delete

    def counting_put(self, key, value, lease=None):
        mutated.append(key)
        return put(self, key, value, lease=lease)

    def counting_delete(self, key):
        mutated.append(key)
        return delete(self, key)

    monkeypatch.setattr(store_module, "WatchEvent", CountingWatchEvent)
    monkeypatch.setattr(KVStore, "put", counting_put)
    monkeypatch.setattr(KVStore, "_delete", counting_delete)
    return built, mutated


def test_heartbeats_build_no_watch_events(counted):
    built, mutated = counted
    system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [FailureEvent(1200.0, FailureType.HARDWARE, [0])],
        system.inject_failure,
    )
    result = system.run(1 * HOUR)

    (record,) = result.recoveries
    assert record.failed_ranks == [0]
    root_mutations = [key for key in mutated if key == ROOT_ELECTION_KEY]
    heartbeats = [key for key in mutated if key.startswith(HEALTH_PREFIX)]
    assert len(root_mutations) == 3  # first leader, its lease ends, re-election
    assert len(heartbeats) > 10_000
    assert built == root_mutations
    assert len(mutated) == system.kvstore.revision == PINNED_REVISION
    assert system.sim.events_processed == PINNED_EVENTS
