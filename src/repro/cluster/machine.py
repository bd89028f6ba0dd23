"""Machine and GPU models.

A :class:`Machine` is one training host: a fixed set of GPUs, a pool of CPU
memory with capacity accounting (in-memory checkpoints live here), and a
health state driven by the failure injector / cloud operator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cluster.instances import InstanceType
from repro.units import fmt_bytes


class MachineState(enum.Enum):
    """Lifecycle of a training machine."""

    HEALTHY = "healthy"
    #: Training process crashed (software failure); hardware intact.
    PROCESS_DOWN = "process_down"
    #: Hardware failure; the machine and its CPU memory contents are lost.
    FAILED = "failed"
    #: Removed from the cluster, replacement in flight.
    REPLACING = "replacing"


@dataclass
class GPU:
    """One accelerator: memory accounting for model state + ckpt buffers."""

    index: int
    memory_bytes: float
    used_bytes: float = 0.0

    @property
    def free_bytes(self) -> float:
        return self.memory_bytes - self.used_bytes

    def allocate(self, nbytes: float, what: str = "allocation") -> None:
        """Reserve GPU memory; raises MemoryError on OOM (paper Fig 5b/16)."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self.used_bytes + nbytes > self.memory_bytes:
            raise MemoryError(
                f"GPU{self.index} out of memory: {what} needs "
                f"{fmt_bytes(nbytes)}, only {fmt_bytes(self.free_bytes)} free"
            )
        self.used_bytes += nbytes

    def free(self, nbytes: float) -> None:
        """Release previously allocated GPU memory."""
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self.used_bytes + 1e-9:
            raise ValueError(
                f"GPU{self.index}: freeing {fmt_bytes(nbytes)} but only "
                f"{fmt_bytes(self.used_bytes)} allocated"
            )
        self.used_bytes = max(0.0, self.used_bytes - nbytes)


class Machine:
    """A training host machine.

    Parameters
    ----------
    machine_id:
        Stable unique id (survives nothing — a replacement machine gets a
        new id but inherits the failed machine's *rank*).
    rank:
        Training rank / position in the placement strategy, ``0..N-1``.
    instance_type:
        Hardware SKU from the catalog.
    position:
        Attachment point in the fabric topology (a
        :class:`repro.network.topology.Position`), or ``None`` on a flat
        fabric.  Like the rank, the position belongs to the *slot*: a
        replacement machine inherits it.
    on_transition:
        Called with the machine after every state transition (the owning
        :class:`~repro.cluster.cluster.Cluster` keeps its down-rank index
        with it).  :meth:`add_transition_hook` adds more such callbacks.
    """

    def __init__(
        self,
        machine_id: str,
        rank: int,
        instance_type: InstanceType,
        position=None,
        on_transition: Optional[Callable[["Machine"], None]] = None,
    ):
        self.machine_id = machine_id
        self.rank = rank
        self.instance_type = instance_type
        self.position = position
        #: Incremented on every incarnation change; lets stale async events
        #: (e.g. a transfer completing after the machine died) detect staleness.
        self.epoch = 0
        self._transition_hooks: List[Callable[["Machine"], None]] = (
            [on_transition] if on_transition is not None else []
        )
        self._state = MachineState.HEALTHY
        self._healthy = True
        self._hardware_alive = True
        #: ``epoch`` while the hardware is alive, None once it is lost.
        self.live_epoch: Optional[int] = self.epoch
        self.gpus: List[GPU] = [
            GPU(index=i, memory_bytes=instance_type.gpu_memory_bytes)
            for i in range(instance_type.num_gpus)
        ]
        self.cpu_memory_bytes = instance_type.cpu_memory_bytes
        self.cpu_memory_used = 0.0

    # -- health -------------------------------------------------------------

    @property
    def state(self) -> MachineState:
        return self._state

    @state.setter
    def state(self, state: MachineState) -> None:
        # Every transition, including the cloud operator's direct
        # REPLACING write, lands here, so the liveness flags the fleet
        # loops read cannot drift from the enum.
        self._state = state
        self._healthy = state is MachineState.HEALTHY
        self._hardware_alive = self._healthy or state is MachineState.PROCESS_DOWN
        self.live_epoch = self.epoch if self._hardware_alive else None
        for hook in self._transition_hooks:
            hook(self)

    def add_transition_hook(self, hook: Callable[["Machine"], None]) -> None:
        """Call ``hook`` with the machine after every later transition."""
        self._transition_hooks.append(hook)

    @property
    def is_healthy(self) -> bool:
        return self._healthy

    @property
    def hardware_alive(self) -> bool:
        """CPU memory contents survive software failures but not hardware ones."""
        return self._hardware_alive

    def mark_process_down(self) -> None:
        """Software failure: the process dies, memory contents survive."""
        if self.state == MachineState.FAILED:
            raise RuntimeError(f"{self} is already hardware-failed")
        self.state = MachineState.PROCESS_DOWN

    def mark_failed(self) -> None:
        """Hardware failure: machine (and its CPU memory contents) are lost."""
        self.epoch += 1
        self.cpu_memory_used = 0.0
        for gpu in self.gpus:
            gpu.used_bytes = 0.0
        self.state = MachineState.FAILED  # last: live_epoch follows the new epoch

    def restart_process(self) -> None:
        """Recover from a software failure in place.

        CPU-memory contents survive a process restart, so the incarnation
        epoch is deliberately NOT bumped.
        """
        if self.state != MachineState.PROCESS_DOWN:
            raise RuntimeError(f"cannot restart process of {self} in state {self.state}")
        self.state = MachineState.HEALTHY

    # -- CPU memory accounting ------------------------------------------------

    @property
    def cpu_memory_free(self) -> float:
        return self.cpu_memory_bytes - self.cpu_memory_used

    def allocate_cpu_memory(self, nbytes: float, what: str = "allocation") -> None:
        """Reserve host memory (checkpoint buffers); raises MemoryError on OOM."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self.cpu_memory_used + nbytes > self.cpu_memory_bytes:
            raise MemoryError(
                f"{self} CPU memory exhausted: {what} needs {fmt_bytes(nbytes)}, "
                f"only {fmt_bytes(self.cpu_memory_free)} free"
            )
        self.cpu_memory_used += nbytes

    def free_cpu_memory(self, nbytes: float) -> None:
        """Release host memory."""
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self.cpu_memory_used + 1e-6:
            raise ValueError(
                f"{self}: freeing {fmt_bytes(nbytes)} but only "
                f"{fmt_bytes(self.cpu_memory_used)} allocated"
            )
        self.cpu_memory_used = max(0.0, self.cpu_memory_used - nbytes)

    def __repr__(self) -> str:
        return f"<Machine {self.machine_id} rank={self.rank} {self.state.value}>"
