"""Liveness flags, the cluster's down index and store validity under
random state-transition sequences.

``Machine.is_healthy``/``hardware_alive``, ``Cluster.down_ranks`` and
``CPUCheckpointStore.valid`` are flags maintained on every state
transition.  After every step these tests recompute each one from the
``MachineState`` enum (the definitions the flags replaced) and compare.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudOperator
from repro.cluster import Cluster, Machine, MachineState, P4D_24XLARGE
from repro.sim import RandomStreams, Simulator
from repro.storage.cpu_memory import CPUCheckpointStore

ALIVE = (MachineState.HEALTHY, MachineState.PROCESS_DOWN)
NUM_MACHINES = 4


class Tracked:
    """Every machine and store seen so far, with the enum-side truth."""

    def __init__(self):
        self.machines = []
        #: [store, machine epoch at creation, hardware failed since creation]
        self.stores = []

    def add(self, machine):
        self.machines.append(machine)
        self.add_store(machine)

    def add_store(self, machine):
        self.stores.append([CPUCheckpointStore(machine), machine.epoch, False])

    def fail(self, machine):
        machine.mark_failed()
        for entry in self.stores:
            if entry[0].machine is machine:
                entry[2] = True

    def check(self):
        for machine in self.machines:
            assert machine.is_healthy == (machine.state == MachineState.HEALTHY)
            assert machine.hardware_alive == (machine.state in ALIVE)
        for store, epoch, failed in self.stores:
            machine = store.machine
            assert store.valid == (machine.state in ALIVE and machine.epoch == epoch)
            if failed:
                assert not store.valid, "a store outlived its machine's hardware"


def check_cluster(cluster):
    ranks = range(cluster.size)
    states = [cluster.machine(rank).state for rank in ranks]
    assert cluster.machines() == [cluster.machine(rank) for rank in ranks]
    assert cluster.down_ranks() == [
        rank for rank in ranks if states[rank] != MachineState.HEALTHY
    ]
    assert cluster.healthy_ranks() == [
        rank for rank in ranks if states[rank] == MachineState.HEALTHY
    ]
    assert cluster.failed_ranks() == [
        rank
        for rank in ranks
        if states[rank] in (MachineState.FAILED, MachineState.REPLACING)
    ]


CLUSTER_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["process_down", "fail", "restart", "request_replacement", "replace", "drain"]
        ),
        st.integers(0, NUM_MACHINES - 1),
    ),
    max_size=40,
)


class TestClusterTransitions:
    @given(steps=CLUSTER_OPS)
    @settings(max_examples=200, deadline=None)
    def test_flags_follow_the_enum(self, steps):
        sim = Simulator()
        cluster = Cluster(NUM_MACHINES, P4D_24XLARGE)
        operator = CloudOperator(sim, cluster, rng=RandomStreams(0))
        tracked = Tracked()
        for machine in cluster.machines():
            tracked.add(machine)
        seen = {machine.machine_id for machine in tracked.machines}
        for op, rank in steps:
            machine = cluster.machine(rank)
            state = machine.state
            # Each op fires under the precondition its real caller checks.
            if op == "process_down" and state == MachineState.HEALTHY:
                machine.mark_process_down()
            elif op == "fail" and state in ALIVE:
                tracked.fail(machine)
            elif op == "restart" and state == MachineState.PROCESS_DOWN:
                machine.restart_process()
            elif op == "request_replacement" and state == MachineState.FAILED:
                operator.request_replacement(rank)
            elif op == "replace" and state == MachineState.FAILED:
                cluster.replace(rank)
            elif op == "drain":
                sim.run()
            for current in cluster.machines():
                if current.machine_id not in seen:
                    seen.add(current.machine_id)
                    tracked.add(current)
            tracked.check()
            check_cluster(cluster)


MACHINE_OPS = st.lists(
    st.one_of(
        st.sampled_from(["process_down", "fail", "restart", "store"]),
        st.sampled_from(list(MachineState)),
    ),
    max_size=30,
)


class TestRawMachineTransitions:
    @given(steps=MACHINE_OPS)
    @settings(max_examples=300, deadline=None)
    def test_any_sequence_keeps_flags_exact(self, steps):
        """Arbitrary transitions, raw ``state`` writes included: the flags
        and every store's validity match the enum-side definitions, and a
        store never becomes valid again once its hardware was lost."""
        machine = Machine("m0000", 0, P4D_24XLARGE)
        tracked = Tracked()
        tracked.add(machine)
        for step in steps:
            state = machine.state
            if isinstance(step, MachineState):
                machine.state = step
            elif step == "process_down":
                if state == MachineState.FAILED:
                    continue  # refused, see test_machine.py
                machine.mark_process_down()
            elif step == "fail":
                tracked.fail(machine)
            elif step == "restart":
                if state != MachineState.PROCESS_DOWN:
                    continue  # refused, see test_machine.py
                machine.restart_process()
            else:
                tracked.add_store(machine)  # mid-sequence, maybe on a dead machine
            tracked.check()
