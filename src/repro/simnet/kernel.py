"""Discrete-event simulation kernel.

A from-scratch, dependency-free mini implementation of the process-based
discrete-event style popularized by ``simpy``.  The rest of the reproduction
(the simulated network, the native platform stacks and the uMiddle runtime)
is written as generator *processes* scheduled by a :class:`Kernel`.

Core concepts
-------------

``Kernel``
    Owns the simulated clock and the event queue.  ``kernel.run()`` executes
    events in timestamp order until the queue drains or a deadline passes.
    Each queue entry is one ``[time, sequence, callable]`` list: an event's
    trigger enqueues its ``_process_trigger`` method, and
    :meth:`Kernel.call_soon` / :meth:`Kernel.call_later` enqueue the
    callback itself, with no event, callbacks list or wrapper around it.

``Event``
    A one-shot occurrence.  Processes wait on events by ``yield``-ing them;
    user code triggers them with :meth:`Event.succeed` or :meth:`Event.fail`.

``Timeout``
    An event that triggers automatically after a simulated delay.

``Process``
    Wraps a generator.  Each ``yield``ed event suspends the process until the
    event triggers; the event's value is sent back into the generator.  A
    process is itself an event that triggers when the generator finishes, so
    processes can wait on each other.

``AnyOf`` / ``AllOf``
    Composite events for disjunction/conjunction waits.

Determinism
-----------

Events scheduled for the same timestamp execute in FIFO order of scheduling
(a monotonically increasing sequence number breaks ties), so simulations are
fully deterministic -- a property the benchmark harness relies on.

Cancellation
------------

``call_soon`` and ``call_later`` return the queue entry as a handle, and
:meth:`Kernel.cancel` blanks its callable.  A cancelled entry keeps its
slot: when it is popped it still advances the clock to its time, but it
dispatches nothing and is not counted in ``processed_events``.  So the
clock after ``run()`` never depends on whether a timer was cancelled.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "ProcessKilled",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Kernel",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Thrown into a process that was forcibly killed via :meth:`Process.kill`."""


class Event:
    """A one-shot simulation event.

    An event starts *pending*; it becomes *triggered* exactly once, either
    successfully (carrying a value) or with a failure (carrying an
    exception).  Callbacks registered before the trigger run when the kernel
    processes the trigger; callbacks registered afterwards run immediately
    at the current simulated time.
    """

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"

    def __init__(self, kernel: "Kernel", name: str = ""):
        self._kernel = kernel
        self._name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = Event.PENDING
        #: Set True by a waiter that consumed the failure, to suppress the
        #: "unhandled failure" error at kernel level.
        self.defused = False

    # -- inspection ---------------------------------------------------

    @property
    def name(self) -> str:
        """Debug name; an unnamed event reads its default, formatted only
        when asked for, so hot waits pay for no string."""
        return self._name or self._default_name()

    def _default_name(self) -> str:
        return self.__class__.__name__

    @property
    def kernel(self) -> "Kernel":
        return self._kernel

    @property
    def triggered(self) -> bool:
        return self._state != Event.PENDING

    @property
    def processed(self) -> bool:
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"value of {self.name} is not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ---------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self.name} has already been triggered")
        self._value = value
        self._state = Event.TRIGGERED
        self._kernel._schedule(0.0, self._process_trigger)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self.name} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = Event.TRIGGERED
        self._kernel._schedule(0.0, self._process_trigger)
        return self

    # -- callbacks ----------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback is scheduled to
        run immediately (at the current simulated time) rather than being
        silently dropped.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            # Already processed: deliver asynchronously but without delay so
            # ordering relative to other immediate events is preserved.
            self._kernel.call_soon(lambda: callback(self))

    def reset(self) -> "Event":
        """Recycle a fully processed event back to *pending*.

        Hot loops (per-peer senders, stream drain barriers) park on one
        event per wait; resetting lets a single-owner waiter reuse the
        same object instead of allocating a fresh event per cycle.  Only
        legal once the previous trigger has been processed -- a pending or
        triggered-but-unprocessed event still owes its waiters a wakeup.
        """
        if self._state != Event.PROCESSED:
            raise SimulationError(f"cannot reset {self.name!r}: not processed yet")
        self.callbacks = []
        self._value = None
        self._exception = None
        self.defused = False
        self._state = Event.PENDING
        return self

    def _process_trigger(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = Event.PROCESSED
        for callback in callbacks or ():
            callback(self)
        if self._exception is not None and not self.defused:
            raise self._exception

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.__class__.__name__} {self.name!r} state={self._state}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` seconds in the future."""

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(kernel)
        self.delay = delay
        self._value = value
        self._state = Event.TRIGGERED
        kernel._schedule(delay, self._process_trigger)

    def _default_name(self) -> str:
        return f"Timeout({self.delay})"


class _Initialize(Event):
    """Internal event that starts a freshly created process."""

    def __init__(self, kernel: "Kernel", process: "Process"):
        super().__init__(kernel, name=f"Init({process.name})")
        self._state = Event.TRIGGERED
        self.callbacks.append(process._resume)
        kernel._schedule(0.0, self._process_trigger)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is an :class:`Event` that triggers when the generator
    returns (successfully, with the return value) or raises (as a failure).
    """

    def __init__(self, kernel: "Kernel", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("Process requires a generator")
        super().__init__(kernel, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        _Initialize(kernel, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        self._throw_in(Interrupt(cause))

    def kill(self, reason: str = "killed") -> None:
        """Forcibly terminate the process with :class:`ProcessKilled`.

        Unlike :meth:`interrupt` the resulting failure is pre-defused, so an
        unhandled kill does not abort the whole simulation.
        """
        self._throw_in(ProcessKilled(reason), defuse=True)

    def _throw_in(self, exc: BaseException, defuse: bool = False) -> None:
        if self.triggered:
            raise SimulationError(f"{self.name} has already terminated")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself this way")
        # Detach from whatever event the process is currently waiting on.
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        throw_event = Event(self._kernel, name=f"Throw({self.name})")
        throw_event._exception = exc
        throw_event._state = Event.TRIGGERED
        throw_event.defused = True
        throw_event.callbacks.append(self._resume)
        if defuse:
            self.defused = True
        self._kernel._schedule(0.0, throw_event._process_trigger)

    # -- generator driving --------------------------------------------

    def _resume(self, event: Event) -> None:
        self._kernel._active_process = self
        try:
            while True:
                try:
                    if event._exception is None:
                        target = self._generator.send(event._value)
                    else:
                        event.defused = True
                        target = self._generator.throw(event._exception)
                except StopIteration as stop:
                    self._waiting_on = None
                    self._value = stop.value
                    self._state = Event.TRIGGERED
                    self._kernel._schedule(0.0, self._process_trigger)
                    return
                except BaseException as exc:
                    self._waiting_on = None
                    self._exception = exc
                    self._state = Event.TRIGGERED
                    self._kernel._schedule(0.0, self._process_trigger)
                    return

                if not isinstance(target, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                    event = Event(self._kernel)
                    event._exception = exc
                    event._state = Event.TRIGGERED
                    continue
                if target._kernel is not self._kernel:
                    exc = SimulationError("cannot wait on an event from another kernel")
                    event = Event(self._kernel)
                    event._exception = exc
                    event._state = Event.TRIGGERED
                    continue

                if target.callbacks is not None:
                    # Pending or triggered-but-unprocessed: park the process.
                    self._waiting_on = target
                    target.callbacks.append(self._resume)
                    return
                # Already processed: loop and feed its outcome immediately.
                event = target
        finally:
            self._kernel._active_process = None


class _Condition(Event):
    """Base class for :class:`AnyOf` / :class:`AllOf` composite waits."""

    def __init__(self, kernel: "Kernel", events: Iterable[Event], name: str):
        super().__init__(kernel, name=name)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event._kernel is not self._kernel:
                raise SimulationError("all events must belong to the same kernel")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict:
        # ``processed`` (not ``triggered``): a Timeout is born triggered but
        # has not *happened* until the kernel processes it.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._exception is None
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when the first of ``events`` triggers.

    Succeeds with a dict of the already-triggered events and their values;
    fails if the first event to trigger failed.
    """

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel, events, name="AnyOf")

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defused = True
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when every one of ``events`` has triggered.

    Succeeds with a dict of all events and their values; fails fast on the
    first failing constituent.
    """

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel, events, name="AllOf")

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defused = True
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
            return
        done = sum(1 for e in self._events if e.processed)
        if done == len(self._events):
            self.succeed(self._collect())


class Kernel:
    """The simulation kernel: clock plus event queue.

    Typical use::

        kernel = Kernel()

        def worker(kernel):
            yield kernel.timeout(1.0)
            return "done"

        proc = kernel.process(worker(kernel))
        kernel.run()
        assert proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._queue: List = []
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self._processed_events = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """The current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Queue entries dispatched so far (for tests/metrics); cancelled
        entries do not count."""
        return self._processed_events

    # -- event factories ------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_soon(self, func: Callable[[], None]) -> list:
        """Schedule ``func()`` at the current simulated time; returns a
        handle for :meth:`cancel`."""
        return self._schedule(0.0, func)

    def call_later(self, delay: float, func: Callable[[], None]) -> list:
        """Schedule ``func()`` ``delay`` seconds in the future; returns a
        handle for :meth:`cancel`."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._schedule(delay, func)

    def cancel(self, handle: Optional[list]) -> None:
        """Cancel a callback scheduled by :meth:`call_soon` or
        :meth:`call_later`.

        The entry keeps its queue slot and still advances the clock when
        popped, but runs nothing.  Cancelling ``None`` or a callback that
        already ran is a no-op.
        """
        if handle is not None:
            handle[2] = None

    # -- scheduling ------------------------------------------------------

    def _schedule(self, delay: float, func: Callable[[], None]) -> list:
        self._sequence += 1
        entry = [self._now + delay, self._sequence, func]
        heappush(self._queue, entry)
        return entry

    def peek(self) -> float:
        """Timestamp of the next queue entry (cancelled ones included),
        or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Pop exactly one queue entry, advancing the clock to its time,
        and run it unless it was cancelled."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, func = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past (kernel bug)")
        self._now = when
        if func is not None:
            self._processed_events += 1
            func()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or the clock would pass ``until``.

        When a deadline is given the clock is advanced exactly to it even if
        no event falls on the deadline, matching ``simpy`` semantics.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"deadline {until} is in the past (now={self._now})")
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn ``generator`` and run until it completes.

        Returns the process return value; re-raises its failure.  Other
        queued events continue to be processed while waiting.
        """
        process = self.process(generator, name=name)
        while not process.triggered:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: process {process.name!r} cannot make progress"
                )
            self.step()
        process.defused = True
        return process.value
