"""Differential test: keyed watch dispatch against the full-scan original.

:class:`FullScanStore` keeps the dispatch the store had before watches
were looked up by key: build a :class:`WatchEvent` for every mutation,
then test every registered prefix against it.  Both stores are driven
through the same random sequence of watch/cancel/put/delete/CAS and
lease operations, with callbacks that add watches, cancel watches and
mutate the store while a dispatch is running.  The two must deliver the
same (watch, type, key, value, revision) stream in the same order.
"""

from typing import Any, Callable, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KVStore, Lease, WatchEvent, WatchEventType
from repro.sim import Simulator


class FullScanStore(KVStore):
    """The store with its original one-prefix-test-per-watch dispatch."""

    def _notify(self, kind: WatchEventType, key: str, value: Optional[Any]) -> None:
        event = WatchEvent(kind, key, value, self.revision)
        for prefix, callback in list(self._watches):
            if event.key.startswith(prefix):
                callback(event)


ALPHABET = "ab/"
prefixes = st.text(alphabet=ALPHABET, max_size=3)  # "" watches everything
keys = st.text(alphabet=ALPHABET, min_size=1, max_size=4)

#: what a watch's callback does besides recording the event.
BEHAVIOURS = ("record", "spawn", "cancel_self", "cancel_first", "mutate")

ops = st.lists(
    st.one_of(
        st.tuples(st.just("watch"), prefixes, st.sampled_from(BEHAVIOURS), keys),
        st.tuples(st.just("cancel"), st.integers(0, 15)),
        st.tuples(st.just("put"), keys, st.integers(0, 3)),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("cas"), keys, st.sampled_from([None, 0, 1]), st.integers(0, 3)),
        st.tuples(st.just("lease_put"), keys, st.sampled_from([1.0, 2.0, 3.0])),
        st.tuples(st.just("refresh"),),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    ),
    min_size=1,
    max_size=40,
)


class Harness:
    """Applies an op sequence to one store, logging every delivery."""

    #: nested mutations any callback may still make, so a callback that
    #: writes under its own prefix cannot recurse forever.
    MUTATION_BUDGET = 8

    def __init__(self, store_type: type):
        self.sim = Simulator()
        self.store: KVStore = store_type(self.sim)
        self.log: List[Any] = []
        self.cancels: List[Callable[[], None]] = []
        self.leases: List[Lease] = []
        self.budget = self.MUTATION_BUDGET

    def add_watch(self, prefix: str, behaviour: str, key: str) -> None:
        watch_id = len(self.cancels)
        fired = [False]

        def callback(event: WatchEvent) -> None:
            self.log.append((watch_id, event.type, event.key, event.value, event.revision))
            first, fired[0] = not fired[0], True
            if behaviour == "spawn" and first:
                self.add_watch(prefix, "record", key)
            elif behaviour == "cancel_self" and first:
                self.cancels[watch_id]()
            elif behaviour == "cancel_first" and first:
                self.cancels[0]()
            elif behaviour == "mutate" and self.budget > 0:
                self.budget -= 1
                self.store.put(key, ("nested", watch_id, event.revision))

        self.cancels.append(self.store.watch(prefix, callback))

    def apply(self, op) -> None:
        kind, args = op[0], op[1:]
        if kind == "watch":
            self.add_watch(*args)
        elif kind == "cancel":
            if self.cancels:
                self.cancels[args[0] % len(self.cancels)]()
        elif kind == "put":
            self.store.put(*args)
        elif kind == "delete":
            self.log.append(("deleted", self.store.delete(*args)))
        elif kind == "cas":
            self.log.append(("cas", self.store.compare_and_swap(*args)))
        elif kind == "lease_put":
            key, ttl = args
            lease = self.store.grant_lease(ttl)
            self.leases.append(lease)
            self.store.put(key, ("leased", ttl), lease=lease)
        elif kind == "refresh":
            live = [lease for lease in self.leases if lease.alive]
            if live:
                live[-1].refresh()
        else:
            self.sim.run(until=self.sim.now + args[0])


@given(sequence=ops)
@settings(max_examples=200, deadline=None)
def test_keyed_dispatch_matches_full_scan(sequence):
    fast, slow = Harness(KVStore), Harness(FullScanStore)
    for harness in (fast, slow):
        for op in sequence:
            harness.apply(op)
        harness.sim.run()
    assert fast.log == slow.log
    assert fast.store.revision == slow.store.revision
    assert fast.store.get_prefix("") == slow.store.get_prefix("")
