"""Event primitives for the DES engine.

An :class:`Event` is a one-shot future: it can *succeed* with a value or
*fail* with an exception, and it notifies registered callbacks when it
fires.  :class:`Timeout` is an event pre-scheduled at ``now + delay``.
:class:`Process` wraps a generator and is itself an event that fires when
the generator finishes, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Simulator

# Sentinel distinguishing "not fired yet" from "fired with value None".
_PENDING = object()


class EventAlreadyFired(RuntimeError):
    """Raised when succeed()/fail() is called on an event that already fired."""


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot future bound to a simulator.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    # Events are the single most-allocated object in any run; __slots__
    # drops the per-instance dict (~40% smaller, faster attribute access
    # in the hot _run_callbacks/_resume paths).
    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_fired", "_defused")

    def __init__(self, sim: "Simulator", name: Optional[str] = None):
        # Timeout and Callback set these slots without calling here: a
        # slot added to Event must be set in their constructors too.
        self.sim = sim
        self.name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._fired = False
        # True means "no un-handled failure": set False by fail() until a
        # waiter defuses it (see _run_callbacks).
        self._defused = True

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has *fired* (its callbacks have been run).

        Note the distinction from "scheduled": a Timeout has its value
        assigned at construction but only fires when the clock reaches it.
        """
        return self._fired

    @property
    def _resolved(self) -> bool:
        """True once a value/exception is assigned (fired or merely scheduled)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception of a fired event."""
        if not self._fired:
            raise AttributeError(f"{self!r} has not fired")
        return self._value

    # -- firing -----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._value is not _PENDING:
            raise EventAlreadyFired(f"{self!r} already fired")
        self._ok = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed and schedule its callbacks."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise EventAlreadyFired(f"{self!r} already fired")
        self._ok = False
        self._value = exception
        self._defused = False
        self.sim._schedule_event(self)
        return self

    # -- internals --------------------------------------------------------

    def _run_callbacks(self) -> None:
        self._fired = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if self._ok is False and not self._defused:
            # A failure nobody waited on would otherwise vanish silently.
            raise self._value

    def _defuse(self) -> None:
        """Mark a failure as handled so it does not crash the simulation."""
        self._defused = True

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{label} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    The constructor sets every slot itself rather than going through
    :meth:`Event.__init__`: timeouts and callbacks are most of a run's
    events.  The ``Timeout(<delay>)`` label is formatted only when read.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._fired = False
        self._defused = True
        self.delay = delay
        sim._schedule_event(self, delay)

    @property  # type: ignore[override, misc]
    def name(self) -> str:
        return f"Timeout({self.delay})"


class Callback(Event):
    """Fast-path event that invokes a bare ``func()`` when it fires.

    ``Simulator.call_after``/``call_at`` schedule one of these instead of
    a :class:`Timeout` plus a wrapping lambda: one allocation, no name,
    no per-call closure.  Callbacks appended to :attr:`callbacks` after
    construction still run (after ``func``), preserving plain Event
    semantics for the returned object.
    """

    __slots__ = ("_func",)

    def __init__(self, sim: "Simulator", delay: float, func: Callable[[], None]):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.name = None
        self.callbacks = []
        self._value = None
        self._ok = True
        self._fired = False
        self._defused = True
        self._func: Optional[Callable[[], None]] = func
        sim._schedule_event(self, delay)

    def _run_callbacks(self) -> None:
        self._fired = True
        func = self._func
        if func is not None:
            self._func = None
            func()
        if self.callbacks:
            callbacks, self.callbacks = self.callbacks, []
            for callback in callbacks:
                callback(self)


class Initialize(Event):
    """Internal event used to start a :class:`Process` at the current time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim, name="Initialize")
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule_event(self, delay=0.0)


class Process(Event):
    """A running generator; also an event that fires on generator exit.

    The generator yields :class:`Event` objects.  When a yielded event
    succeeds, the success value is sent back into the generator; when it
    fails, the exception is thrown into the generator (which may catch it).
    The process event itself succeeds with the generator's return value, or
    fails with any uncaught exception.
    """

    __slots__ = ("_generator", "_target")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process needs a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "Process"))
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        waiting on an event detaches it from that event first.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt dead process {self!r}")
        if self._target is self:
            raise RuntimeError("a process cannot interrupt itself")
        interrupt_event = Event(self.sim, name="Interrupt")
        interrupt_event._ok = False
        interrupt_event._value = Interrupted(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule_event(interrupt_event, delay=0.0, urgent=True)

    # -- generator driving --------------------------------------------------

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            return  # already finished (e.g. interrupt raced with completion)
        # Detach from the event we were waiting on if this is an interrupt.
        if self._target is not None and self._target is not event:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self.sim._active_process = self
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                event._defuse()
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # uncaught error inside the process
            self.sim._active_process = None
            self.fail(exc)
            return
        self.sim._active_process = None

        if not isinstance(result, Event):
            raise TypeError(
                f"process {self.name!r} yielded {result!r}; processes must "
                "yield Event instances (timeout(), other events, AllOf/AnyOf)"
            )
        if result.triggered:
            # Already fired: resume immediately (at the current time).
            resume_event = Event(self.sim, name="ImmediateResume")
            resume_event._ok = result._ok
            resume_event._value = result._value
            if result._ok is False:
                result._defuse()
                resume_event._defused = True
            resume_event.callbacks.append(self._resume)
            self.sim._schedule_event(resume_event, delay=0.0)
        else:
            result.callbacks.append(self._resume)
        self._target = result


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name=self.__class__.__name__)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
        self._pending = 0
        initial_failure = None
        any_initial_success = False
        for event in self.events:
            if event.triggered:
                if event._ok is False:
                    event._defuse()
                    initial_failure = initial_failure or event._value
                else:
                    any_initial_success = True
            else:
                self._pending += 1
                event.callbacks.append(self._on_fire)
        if initial_failure is not None:
            self.fail(initial_failure)
            return
        self._check_initial(any_initial_success)

    def _check_initial(self, any_initial_success: bool) -> None:
        raise NotImplementedError

    def _on_fire(self, event: Event) -> None:
        raise NotImplementedError

    def _collect_values(self) -> dict:
        return {
            index: event._value
            for index, event in enumerate(self.events)
            if event.triggered and event._ok is True
        }


class AllOf(_Condition):
    """Succeeds when every child event succeeds; fails on the first failure.

    The success value is ``{index: value}`` for every child.
    """

    __slots__ = ()

    def _check_initial(self, any_initial_success: bool) -> None:
        if not self._resolved and self._pending == 0:
            self.succeed(self._collect_values())

    def _on_fire(self, event: Event) -> None:
        if self._resolved:
            return
        if event._ok is False:
            event._defuse()
            self.fail(event._value)
            return
        self._pending = max(0, self._pending - 1)
        if self._pending == 0:
            self.succeed(self._collect_values())


class AnyOf(_Condition):
    """Succeeds as soon as any child event succeeds.

    The success value is ``{index: value}`` of the children that have fired.
    An empty child list succeeds immediately with ``{}``.
    """

    __slots__ = ()

    def _check_initial(self, any_initial_success: bool) -> None:
        if self._resolved:
            return
        if not self.events or any_initial_success:
            self.succeed(self._collect_values() if self.events else {})

    def _on_fire(self, event: Event) -> None:
        if self._resolved:
            return
        if event._ok is False:
            event._defuse()
            self.fail(event._value)
            return
        self.succeed(self._collect_values())
