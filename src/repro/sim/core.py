"""The discrete-event simulator core.

A binary-heap event queue keyed on ``(time, priority, sequence)``.  Time is
integer nanoseconds (see :mod:`repro.units`); the monotonically increasing
sequence number makes the ordering total and deterministic, which keeps
whole-cluster simulations bit-reproducible for a given seed.

The ``run`` loops inline the per-event dispatch (rather than calling
:meth:`Simulator.step`) and hoist the queue and ``heappop`` into locals:
fig10-scale runs process ~100 events per I/O, so attribute lookups in
this loop are a measurable fraction of total wall-clock.  None of the
fast paths change *which* events run or in what order — every entry
still receives a fresh sequence number from the same counter, so traces
and telemetry exports stay bit-identical.

Every loop keeps in ``_cur`` the largest heap entry dispatched so far
(one compare per event, a store when it grows).  A key reserved with
``next(sim._sequence)`` for a later instant but never pushed can then
be ordered against "now" exactly as if it had been on the heap: it has
been passed iff ``key < sim._cur``.  The largest entry, not the current
one: an ``URGENT`` event pushed for the current instant after ``NORMAL``
events of that instant already ran sorts below them, yet runs after
them.  Link pipes (:class:`~repro.sim.resources.Pipe`) use this to keep
their release instants off the heap until somebody waits for them.
"""

from __future__ import annotations

import typing as t
from heapq import heappop, heappush
from itertools import count

from .events import (NORMAL, URGENT, AllOf, AnyOf, Event, PooledTimeout,
                     Timeout, _as_int_delay)
from .process import Process
from .rng import RngRegistry

__all__ = ["Simulator", "NORMAL", "URGENT"]


class Simulator:
    """Owns the clock, the event queue and per-component RNG streams.

    Typical use::

        sim = Simulator(seed=7)

        def worker(sim):
            yield sim.timeout(100)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: int = 0
        self._queue: list[tuple[int, int, int, Event]] = []
        self._sequence = count()
        self._resource_sequence = count()
        #: the largest heap entry dispatched so far, or a bound standing
        #: in for one: below every key before the first run, just above
        #: every NORMAL key of the final instant after one.
        self._cur: tuple = (-1,)
        self._active_process: Process | None = None
        self.rng = RngRegistry(seed)
        #: free-form registry used by components to find each other
        self.components: dict[str, t.Any] = {}
        #: total events dispatched (perf telemetry; deterministic per run)
        self.events_processed: int = 0
        #: free list for :meth:`sleep` timeouts (see events.PooledTimeout)
        self._timeout_pool: list[PooledTimeout] = []

    def _next_resource_order(self) -> int:
        """Deterministic creation index for Resources (lock ordering)."""
        return next(self._resource_sequence)

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- event factories -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: t.Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: int) -> Timeout:
        """A pooled fire-and-forget timeout for ``yield sim.sleep(ns)``.

        Behaves exactly like :meth:`timeout` on the event queue (same
        sequence numbering, same ordering), but recycles the event object
        through a free list once its callbacks have run.  Callers must
        not retain the returned event past the yield or compose it with
        ``any_of``/``all_of`` — use :meth:`timeout` for those.
        """
        pool = self._timeout_pool
        if pool and type(delay) is int and delay >= 0:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = None
            ev._ok = True
            ev._processed = False
            ev._defused = False
            ev.delay = delay
            heappush(self._queue, (self._now + delay, NORMAL,
                                   next(self._sequence), ev))
            return ev
        return PooledTimeout(self, delay)

    def process(self, generator: t.Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def any_of(self, events: t.Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: t.Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        if delay:
            if type(delay) is not int:
                delay = _as_int_delay(delay)
            if delay < 0:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            heappush(self._queue, (self._now + delay, priority,
                                   next(self._sequence), event))
        else:
            heappush(self._queue, (self._now, priority,
                                   next(self._sequence), event))

    def _push(self, event: Event, delay: int, priority: int = NORMAL) -> None:
        """Raw enqueue for callers that have already validated ``delay``."""
        heappush(self._queue, (self._now + delay, priority,
                               next(self._sequence), event))

    # -- execution ----------------------------------------------------------------

    def peek(self) -> int | None:
        """Time of the next scheduled event, or None if the queue is empty.

        Instants kept off the heap are not seen: link-pipe releases
        nobody waits for and deadline-queue entries behind the head.
        This is the next heap entry, not the next instant at which
        simulated state changes; no component schedules by it."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process exactly one event."""
        entry = heappop(self._queue)
        if entry > self._cur:
            self._cur = entry
        when, _prio, _seq, event = entry
        assert when >= self._now, "event queue ordering violated"
        self._now = when
        self.events_processed += 1
        event._process()

    def run(self, until: int | Event | None = None) -> t.Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be an absolute time (int) or an :class:`Event`; when
        it is an event, its value is returned (exceptions propagate).
        """
        # The dispatch below is Event._process / PooledTimeout._process
        # inlined (they are the only two implementations); the type check
        # routes recycling without a second method call per event.
        queue = self._queue
        pop = heappop
        pool = self._timeout_pool
        pooled = PooledTimeout
        front = self._cur
        dispatched = 0
        if until is None:
            try:
                while queue:
                    entry = pop(queue)
                    if entry > front:
                        self._cur = front = entry
                    when, _prio, _seq, event = entry
                    self._now = when
                    dispatched += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if type(event) is pooled:
                        if len(pool) < 512:
                            pool.append(event)
                    elif not event._ok and not event._defused:
                        raise t.cast(BaseException, event._value)
            finally:
                self.events_processed += dispatched
            self._cur = (self._now, NORMAL + 1)
            return None

        if isinstance(until, Event):
            stop = until
            if stop.processed:
                return stop.value if stop.ok else None
            done: list[Event] = []
            if stop.callbacks is None:
                raise RuntimeError("cannot run until an event without callbacks")
            stop.callbacks.append(done.append)
            try:
                while queue and not done:
                    entry = pop(queue)
                    if entry > front:
                        self._cur = front = entry
                    when, _prio, _seq, event = entry
                    self._now = when
                    dispatched += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if type(event) is pooled:
                        if len(pool) < 512:
                            pool.append(event)
                    elif not event._ok and not event._defused:
                        raise t.cast(BaseException, event._value)
            finally:
                self.events_processed += dispatched
            if not done:
                self._cur = (self._now, NORMAL + 1)
                raise RuntimeError(
                    "simulation ran out of events before the target event fired")
            if not stop.ok:
                stop.defuse()
                raise t.cast(BaseException, stop._value)
            return stop._value

        deadline = int(until)
        if deadline < self._now:
            raise ValueError(
                f"until={deadline} is in the past (now={self._now})")
        try:
            while queue and queue[0][0] <= deadline:
                entry = pop(queue)
                if entry > front:
                    self._cur = front = entry
                when, _prio, _seq, event = entry
                self._now = when
                dispatched += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if type(event) is pooled:
                    if len(pool) < 512:
                        pool.append(event)
                elif not event._ok and not event._defused:
                    raise t.cast(BaseException, event._value)
        finally:
            self.events_processed += dispatched
        self._now = deadline
        self._cur = (deadline, NORMAL + 1)
        return None
