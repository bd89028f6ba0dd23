"""Span tracing for the benchmark's traced run.

The program under test carries no spans of its own, so the traced run
wraps the public entry points of each ``repro`` package from the outside
(:data:`ENTRY_POINTS`) while it runs and restores them afterwards.  Every
call becomes a span (name, start, end, parent); a generator hook (the
policy's ``on_iteration`` or ``recover``) becomes one span per resumed
step, because a generator does its work while it is driven, not when it
is created.

A layer's self time is its spans' time minus the time of the child spans
they contain.  Spans are kept in memory up to a cap and written to one
JSON file when the run ends; past the cap they still count toward the
totals, and the file says how many were not stored.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["ENTRY_POINTS", "SpanTracer", "instrument"]

#: (layer, module, class, attribute, counter).  A call to the attribute is
#: a span of ``layer``; ``counter`` (if any) names the per-layer count it
#: adds one to.  A ``*`` class means every policy class in the registry.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator", "run", ""),
    ("core.policy", "", "*", "on_iteration", "core.policy.calls"),
    ("core.policy", "", "*", "fast_forward", "core.policy.calls"),
    ("core.policy", "", "*", "commit_checkpoint", "core.policy.calls"),
    ("core.policy", "", "*", "recover", "core.policy.calls"),
    ("core.recovery", "", "*", "plan_recovery", "core.recovery.plans"),
    ("core.placement", "repro.core.placement", "Placement", "hosted_by", "core.placement.calls"),
    ("core.placement", "repro.core.placement", "Placement", "storers_of", "core.placement.calls"),
    ("core.placement", "repro.core.placement", "Placement", "lost_shards", "core.placement.calls"),
    ("core.placement", "repro.core.placement", "Placement", "recoverable", "core.placement.calls"),
    ("storage.cpu", "repro.storage.cpu_memory", "CPUCheckpointStore", "begin_write", ""),
    ("storage.cpu", "repro.storage.cpu_memory", "CPUCheckpointStore", "commit_write", "storage.cpu.writes"),
    ("storage.cpu", "repro.storage.cpu_memory", "CPUCheckpointStore", "valid", "storage.cpu.valid_checks"),
    ("storage.cpu", "repro.storage.cpu_memory", "CPUCheckpointStore", "latest_complete", "storage.cpu.valid_checks"),
    ("storage.tiers", "repro.storage.ssd", "SSDStore", "put_shard", "storage.ssd.writes"),
    ("storage.tiers", "repro.storage.persistent", "PersistentStore", "put_shard", "storage.persistent.puts"),
    ("cluster", "repro.cluster.machine", "Machine", "is_healthy", "cluster.liveness_checks"),
    ("cluster", "repro.cluster.machine", "Machine", "hardware_alive", "cluster.liveness_checks"),
    ("network.fabric", "repro.network.fabric", "Fabric", "transfer", "network.fabric.transfers"),
    ("network.fabric", "repro.network.fabric", "Fabric", "occupy", "network.fabric.transfers"),
    ("network.fabric", "repro.network.fabric", "Fabric", "set_bandwidth", ""),
    ("network.fabric", "repro.network.fabric", "CopyEngine", "copy", "network.fabric.transfers"),
    ("kvstore", "repro.kvstore.store", "KVStore", "put", "kvstore.ops"),
    ("kvstore", "repro.kvstore.store", "KVStore", "get", "kvstore.ops"),
    ("kvstore", "repro.kvstore.store", "KVStore", "get_prefix", "kvstore.ops"),
    ("kvstore", "repro.kvstore.store", "KVStore", "compare_and_swap", "kvstore.ops"),
    ("kvstore", "repro.kvstore.store", "Lease", "refresh", "kvstore.ops"),
    ("trace", "repro.trace", "TraceLog", "record", ""),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "counter", ""),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "gauge", ""),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "histogram", ""),
    ("obs", "repro.obs.metrics", "Counter", "inc", ""),
    ("obs", "repro.obs.metrics", "Gauge", "set", ""),
    ("obs", "repro.obs.metrics", "Gauge", "inc", ""),
    ("obs", "repro.obs.metrics", "Gauge", "dec", ""),
    ("obs", "repro.obs.metrics", "Histogram", "observe", ""),
    ("obs", "repro.obs.spans", "Tracer", "add_span", ""),
    ("obs", "repro.obs.spans", "Tracer", "instant", ""),
    ("chaos.auditor", "repro.chaos.auditor", "RecoveryInvariantAuditor", "on_failure_injected", ""),
    ("chaos.auditor", "repro.chaos.auditor", "RecoveryInvariantAuditor", "on_recovery_complete", ""),
    ("chaos.auditor", "repro.chaos.auditor", "RecoveryInvariantAuditor", "_audit_plan", ""),
    ("chaos.scenario", "repro.chaos.scenario", "ChaosScenario", "run", ""),
    ("experiments.sweep", "repro.experiments.sweep", "SweepRunner", "run", ""),
)

#: spans stored for the JSON file; later spans are only aggregated.
SPAN_CAP = 100_000


class SpanTracer:
    """Nested host-time spans with online self-time aggregation."""

    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.clock = time.perf_counter
        self.origin = self.clock()
        #: stored spans: [name, start, end, parent index or -1].
        self.spans: List[List[Any]] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        # Open spans: [name, start, child seconds, stored index].
        self._stack: List[List[Any]] = []

    def count(self, counter: str) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + 1

    def enter(self, name: str) -> None:
        start = self.clock()
        index = -1
        if len(self.spans) < self.cap:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, start - self.origin, None, parent])
        elif self.cap:
            self.dropped += 1
        self._stack.append([name, start, 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        name, start, children, index = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end - self.origin

    def write(self, path, **meta: Any) -> None:
        """One JSON document: metadata, then every stored span."""
        doc = dict(meta)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans_stored"] = len(self.spans)
        doc["spans_dropped"] = self.dropped
        doc["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")


def _traced_steps(tracer: SpanTracer, layer: str, gen):
    """Drive ``gen`` step by step, one span per resumed step.

    Forwards ``send``/``throw``/``close`` exactly as ``yield from`` would,
    so a process sees the same values and exceptions as without it.
    """
    value: Any = None
    error: Any = None
    while True:
        tracer.enter(layer)
        try:
            if error is None:
                item = gen.send(value)
            else:
                pending, error = error, None
                item = gen.throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit()
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the hook, as yield from does
            error = exc
            value = None


def _wrap_call(tracer: SpanTracer, layer: str, counter: str, func: Callable):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if counter:
            tracer.count(counter)
        tracer.enter(layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if isinstance(result, types.GeneratorType):
            steps = _traced_steps(tracer, layer, result)
            steps.__name__ = result.__name__
            steps.__qualname__ = result.__qualname__
            return steps
        return result

    return traced


def _policy_classes() -> List[type]:
    """Every class a registered policy inherits a hook from."""
    from repro.core.kernel import CheckpointPolicy
    from repro.experiments.registry import available_policies, create_policy

    classes: List[type] = []
    for name in available_policies():
        for klass in type(create_policy(name)).__mro__:
            if klass in (CheckpointPolicy, object) or klass in classes:
                continue
            classes.append(klass)
    return classes


def _targets() -> List[Tuple[str, str, type, str]]:
    import importlib

    policies = _policy_classes()
    targets = []
    for layer, module, cls_name, attr, counter in ENTRY_POINTS:
        if cls_name == "*":
            classes = [klass for klass in policies if attr in vars(klass)]
        else:
            classes = [getattr(importlib.import_module(module), cls_name)]
        for klass in classes:
            if attr not in vars(klass):
                raise AttributeError(f"{klass.__qualname__} defines no {attr!r}")
            targets.append((layer, counter, klass, attr))
    return targets


@contextlib.contextmanager
def instrument(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Every entry point in :data:`ENTRY_POINTS` traced while inside.

    Patches class attributes (methods and properties) and restores the
    originals on exit, so untraced passes in the same process are bare.
    """
    saved: List[Tuple[type, str, Any]] = []
    try:
        for layer, counter, klass, attr in _targets():
            original = vars(klass)[attr]
            if isinstance(original, property):
                wrapped: Any = property(
                    _wrap_call(tracer, layer, counter, original.fget),
                    original.fset,
                    original.fdel,
                    original.__doc__,
                )
            else:
                wrapped = _wrap_call(tracer, layer, counter, original)
            saved.append((klass, attr, original))
            setattr(klass, attr, wrapped)
        yield tracer
    finally:
        for klass, attr, original in reversed(saved):
            setattr(klass, attr, original)
