"""Core of the discrete-event kernel: environment, events, and processes.

The design follows the classic event-callback architecture used by simpy:

* an :class:`Event` is a one-shot object that is *triggered* with a value
  (or an exception) and later *processed*, at which point its callbacks run;
* a :class:`Process` wraps a generator; every value the generator yields must
  be an event, and the process resumes when that event is processed;
* the :class:`Environment` owns the event calendar (a heap ordered by time,
  priority, and insertion order, which makes runs fully deterministic).

Time is a float; the unit is chosen by the model (the database-machine models
in this package use **milliseconds**, matching the paper).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionEvent",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

#: Priority for ordinary events scheduled at the same instant.
NORMAL = 1
#: Priority used when resuming a process; makes resumption happen before
#: same-time ordinary events, mirroring simpy's URGENT ordering.
URGENT = 0


class SimulationError(Exception):
    """Raised for misuse of the kernel (yielding non-events, etc.)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait for.

    Life cycle: *pending* -> *triggered* (has a value, sits in the event
    calendar) -> *processed* (callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (value) rather than failed (error)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of untriggered event")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception thrown into them.  If nobody
        waits and the failure is not :meth:`defused <defuse>`, the exception
        propagates out of :meth:`Environment.run`.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (processed) event.

        Useful as a callback: ``evt_a.callbacks.append(evt_b.trigger)``.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the run."""
        self._defused = True

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))


class _Initialize(Event):
    """Internal event that starts a process at its creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        env._eid += 1
        heappush(env._queue, (env._now, URGENT, env._eid, self))


class Process(Event):
    """A running generator.  As an event, it fires when the generator ends.

    The event's value is the generator's return value (via ``StopIteration``)
    or the exception that terminated it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits for (None when running).
        self._target: Optional[Event] = None
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process is detached from whatever event it was waiting for (that
        event stays valid and may be re-yielded).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._target is None and self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_evt = Event(self.env)
        interrupt_evt._ok = False
        interrupt_evt._value = Interrupt(cause)
        interrupt_evt._defused = True
        interrupt_evt._triggered = True
        interrupt_evt.callbacks = [self._resume]
        self.env._schedule(interrupt_evt, URGENT)
        # Detach from the old target so its firing no longer resumes us.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        A yielded non-event gets :class:`SimulationError` thrown back in;
        whatever the generator yields after catching it is its next event.
        """
        env = self.env
        env._active_process = self
        self._target = None
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
                while not isinstance(next_event, Event):
                    next_event = generator.throw(
                        SimulationError(
                            f"process {self.name!r} yielded non-event {next_event!r}"
                        )
                    )
            except StopIteration as exc:
                # Generator finished normally.
                self._ok = True
                self._value = exc.value
                self._triggered = True
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL, env._eid, self))
                break
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._ok = False
                self._value = exc
                self._triggered = True
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL, env._eid, self))
                break

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event still pending/triggered-not-processed: wait for it.
                callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: loop around immediately with it.
            event = next_event
        env._active_process = None


class ConditionEvent(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: Tuple[Event, ...] = tuple(events)
        for evt in self.events:
            if evt.env is not env:
                raise SimulationError("events from different environments")
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for evt in self.events:
            if evt.callbacks is None:
                # Already processed.
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            evt: evt._value
            for evt in self.events
            if evt._triggered and evt.callbacks is None and evt._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Fires when *all* constituent events have fired.

    Value: dict mapping each event to its value.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({evt: evt._value for evt in self.events})


class AnyOf(ConditionEvent):
    """Fires when *any* constituent event fires.

    Value: dict of the events processed so far mapped to their values.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect() or {event: event._value})


class Environment:
    """The simulation clock and event calendar."""

    def __init__(self, initial_time: float = 0.0):
        self._now = initial_time
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Optional deterministic span recorder (see ``repro.trace``).
        #: Components that model time (disks, interconnects) read
        #: ``env.tracer`` directly; ``None`` disables tracing at the cost
        #: of one attribute read.  Attached by whoever builds the model.
        self.tracer: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None between steps)."""
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling / stepping ----------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        # The hot paths (succeed, Timeout, process start and finish) push
        # the same (time, priority, eid) key inline instead of calling this.
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        try:
            when, _, _, event = heappop(self._queue)
        except IndexError:
            raise SimulationError("step() on empty schedule") from None
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run().
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the calendar empties, time ``until``, or an event fires.

        * ``until`` is None: run to exhaustion.
        * ``until`` is a number: run to that time (clock lands exactly on it).
        * ``until`` is an :class:`Event`: run until it is processed and return
          its value (raising if it failed).
        """
        queue = self._queue
        step = self.step
        if until is None:
            while queue:
                step()
            return None
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if not queue:
                    raise SimulationError(
                        "schedule ran dry before the awaited event fired"
                    )
                step()
            if not stop._ok:
                raise stop._value
            return stop._value
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(f"until={horizon} lies in the past (now={self._now})")
        while queue and queue[0][0] <= horizon:
            step()
        self._now = horizon
        return None
