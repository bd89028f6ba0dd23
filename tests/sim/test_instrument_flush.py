"""Differential test: the DES instruments' once-per-run update.

``Simulator.run`` brings ``repro_sim_events_processed_total`` and
``repro_sim_queue_depth`` up to date once, on its way out.
:class:`PerEventSimulator` keeps the loop that updated both after every
pop.  Driven through the same random schedule (``run(until)`` chunks,
``StopSimulation`` exits, empty runs), the two must read
the same ``value`` and ``last_updated`` after every ``run()`` return.
"""

import heapq
from typing import Any, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.sim import Simulator
from repro.sim.engine import SimulationError, StopSimulation

EVENTS = "repro_sim_events_processed_total"
DEPTH = "repro_sim_queue_depth"


class PerEventSimulator(Simulator):
    """The run loop with an instrument update after every pop."""

    def run(self, until: Optional[float] = None) -> Any:
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        queue = self._queue
        evt_counter = self._evt_counter
        depth_gauge = self._depth_gauge
        try:
            with self._sanitize_factory():
                while queue:
                    if until is not None and queue[0][0] > until:
                        break
                    time, _lane, _seq, event = heapq.heappop(queue)
                    self.now = time
                    self.events_processed += 1
                    if evt_counter is not None and depth_gauge is not None:
                        evt_counter.inc()
                        depth_gauge.set(len(queue))
                    event._run_callbacks()
        except StopSimulation as stop:
            return stop.value
        if until is not None:
            self.now = max(self.now, until)
        return None


times = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
spawns = st.lists(
    st.tuples(times, st.integers(0, 2), st.booleans()), min_size=0, max_size=10
)
chunks = st.lists(
    st.sampled_from([0.0, 0.25, 1.0, 2.0, None]), min_size=1, max_size=8
)


def build(sim_type: type, plan, ticks: int):
    obs = Observability()
    sim = sim_type(obs=obs)
    obs.bind_clock(lambda: sim.now)

    def fire(index: int, depth: int, children: int, stop: bool):
        def func() -> None:
            if depth < 2:
                for child in range(children):
                    sim.call_after(0.25 * child, fire(index, depth + 1, children, stop))
            if stop and depth == 1:
                sim.stop(index)

        return func

    for index, (time, children, stop) in enumerate(plan):
        sim.call_at(time, fire(index, 0, children, stop))

    def ticker():
        for _ in range(ticks):
            yield sim.timeout(0.75)

    sim.process(ticker())
    return sim, obs


def readings(sim: Simulator, obs: Observability, returned: Any) -> tuple:
    counter = obs.metrics.sample(EVENTS)
    gauge = obs.metrics.sample(DEPTH)
    return (
        returned,
        sim.now,
        sim.events_processed,
        counter.value,
        counter.last_updated,
        gauge.value,
        gauge.last_updated,
    )


def drive(sim_type: type, plan, ticks: int, steps) -> List[tuple]:
    sim, obs = build(sim_type, plan, ticks)
    seen = [readings(sim, obs, None)]
    for step in steps:
        returned = sim.run() if step is None else sim.run(until=sim.now + step)
        seen.append(readings(sim, obs, returned))
    returned = sim.run()  # drain, then one run on an empty queue
    seen.append(readings(sim, obs, returned))
    seen.append(readings(sim, obs, sim.run()))
    return seen


@given(plan=spawns, ticks=st.integers(0, 6), steps=chunks)
@settings(max_examples=150, deadline=None)
def test_once_per_run_update_matches_per_event_loop(plan, ticks, steps):
    fast = drive(Simulator, plan, ticks, steps)
    slow = drive(PerEventSimulator, plan, ticks, steps)
    assert fast == slow


def test_empty_run_leaves_instruments_untouched():
    obs = Observability()
    sim = Simulator(obs=obs)
    obs.bind_clock(lambda: sim.now)
    sim.run(until=5.0)
    assert obs.metrics.sample(EVENTS).last_updated is None
    assert obs.metrics.sample(DEPTH).last_updated is None
    sim.call_at(7.0, lambda: None)
    sim.call_at(9.0, lambda: None)
    sim.run(until=8.0)
    assert obs.metrics.value(EVENTS) == 1.0
    assert obs.metrics.value(DEPTH) == 1.0
    # Stamped at the last event, not at the ``until`` the clock moved to.
    assert obs.metrics.sample(EVENTS).last_updated == 7.0
    assert sim.now == 8.0
