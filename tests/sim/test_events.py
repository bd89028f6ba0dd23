"""Event primitive semantics: firing, values, composites, processes."""

import pytest

from repro.sim import (
            Event,
    EventAlreadyFired,
    Interrupted,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_fresh_event_is_untriggered(self, sim):
        event = sim.event()
        assert not event.triggered

    def test_value_before_fire_raises(self, sim):
        event = sim.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_succeed_delivers_value_after_run(self, sim):
        event = sim.event()
        event.succeed(42)
        assert not event.triggered  # scheduled, not yet fired
        sim.run()
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(EventAlreadyFired):
            event.succeed()

    def test_fail_then_succeed_raises(self, sim):
        event = sim.event()
        event.fail(RuntimeError("boom"))
        event._defuse()
        with pytest.raises(EventAlreadyFired):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_unhandled_failure_propagates_out_of_run(self, sim):
        event = sim.event()
        event.fail(ValueError("nobody caught me"))
        with pytest.raises(ValueError, match="nobody caught me"):
            sim.run()

    def test_callbacks_receive_event(self, sim):
        event = sim.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev))
        event.succeed("x")
        sim.run()
        assert seen == [event]


class TestTimeout:
    def test_fires_at_delay(self, sim):
        timeout = sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0
        assert timeout.triggered

    def test_carries_value(self, sim):
        timeout = sim.timeout(1.0, value="payload")
        sim.run()
        assert timeout.value == "payload"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert sim.now == 0.0
        assert timeout.triggered

    def test_is_not_triggered_before_clock_reaches_it(self, sim):
        timeout = sim.timeout(10.0)
        sim.timeout(1.0)
        sim.step()  # fires the 1.0 timeout
        assert sim.now == 1.0
        assert not timeout.triggered

    def test_repr_and_name(self, sim):
        timeout = sim.timeout(5.0)
        assert repr(timeout) == "<Timeout(5.0) pending at t=0.0>"
        assert timeout.name == "Timeout(5.0)"
        sim.run()
        assert repr(timeout) == "<Timeout(5.0) ok at t=5.0>"


class TestProcess:
    def test_process_runs_to_completion(self, sim):
        log = []

        def worker():
            yield sim.timeout(3)
            log.append(sim.now)
            yield sim.timeout(4)
            log.append(sim.now)
            return "done"

        process = sim.process(worker())
        sim.run()
        assert log == [3.0, 7.0]
        assert process.value == "done"

    def test_process_waits_on_another_process(self, sim):
        def child():
            yield sim.timeout(2)
            return 99

        def parent():
            result = yield sim.process(child())
            return result + 1

        process = sim.process(parent())
        sim.run()
        assert process.value == 100

    def test_yield_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(TypeError, match="must[\\s\\S]*yield Event"):
            sim.run()

    def test_exception_inside_process_fails_it(self, sim):
        def broken():
            yield sim.timeout(1)
            raise RuntimeError("inner")

        process = sim.process(broken())
        with pytest.raises(RuntimeError, match="inner"):
            sim.run()
        assert process.triggered
        assert not process.ok

    def test_waiter_sees_process_failure(self, sim):
        def broken():
            yield sim.timeout(1)
            raise RuntimeError("inner")

        caught = []

        def waiter():
            try:
                yield sim.process(broken())
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert caught == ["inner"]

    def test_yielding_already_fired_event_resumes_same_time(self, sim):
        fired = sim.timeout(1.0)

        def waiter():
            yield sim.timeout(5.0)
            yield fired  # fired long ago
            return sim.now

        process = sim.process(waiter())
        sim.run()
        assert process.value == 5.0

    def test_interrupt_raises_inside_process(self, sim):
        caught = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupted as interrupt:
                caught.append(interrupt.cause)

        process = sim.process(sleeper())
        sim.call_at(5.0, lambda: process.interrupt("wake up"))
        sim.run()
        assert caught == ["wake up"]

    def test_interrupt_dead_process_raises(self, sim):
        def quick():
            return 1
            yield  # pragma: no cover

        process = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_is_alive_lifecycle(self, sim):
        def worker():
            yield sim.timeout(1)

        process = sim.process(worker())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_process_return_value_none_by_default(self, sim):
        def worker():
            yield sim.timeout(1)

        process = sim.process(worker())
        sim.run()
        assert process.value is None


class TestAllOf:
    def test_waits_for_all(self, sim):
        t1, t2 = sim.timeout(1, value="a"), sim.timeout(5, value="b")
        combined = sim.all_of([t1, t2])
        sim.run()
        assert sim.now == 5.0
        assert combined.value == {0: "a", 1: "b"}

    def test_empty_all_of_fires_immediately(self, sim):
        combined = sim.all_of([])
        sim.run()
        assert combined.triggered
        assert combined.value == {}

    def test_all_of_with_prefired_event(self, sim):
        early = sim.timeout(1)
        sim.run()
        late = sim.timeout(2)
        combined = sim.all_of([early, late])
        sim.run()
        assert combined.triggered
        assert sim.now == 3.0

    def test_all_of_propagates_failure(self, sim):
        bad = sim.event()
        combined = sim.all_of([sim.timeout(10), bad])
        bad.fail(ValueError("x"))

        def waiter():
            with pytest.raises(ValueError):
                yield combined

        sim.process(waiter())
        sim.run()


class TestAnyOf:
    def test_fires_on_first(self, sim):
        t1, t2 = sim.timeout(1, value="fast"), sim.timeout(10, value="slow")
        either = sim.any_of([t1, t2])

        def waiter():
            result = yield either
            return result

        process = sim.process(waiter())
        sim.run()
        assert process.value == {0: "fast"}

    def test_empty_any_of_fires_immediately(self, sim):
        either = sim.any_of([])
        sim.run()
        assert either.triggered

    def test_any_of_with_prefired_event(self, sim):
        early = sim.timeout(1)
        sim.run()
        either = sim.any_of([early, sim.timeout(100)])
        sim.run(until=2.0)
        assert either.triggered
