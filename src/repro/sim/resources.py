"""Synchronisation primitives built on events.

``Resource``
    Counted FIFO resource (DMA engines, media channels, admin locks).

``Pipe``
    Capacity-1 FIFO link direction that keeps the instant its current
    hold ends instead of a release timer on the event queue.

``DeadlineQueue``
    Timeouts of one fixed delay, armed in FIFO order, of which only the
    oldest still-needed one sits on the event queue (per-command
    timeouts).

``Store``
    Unbounded FIFO of Python objects with blocking ``get`` (mailboxes,
    request queues between driver layers).

``Signal``
    Broadcast edge: ``wait()`` returns an event triggered by the next
    ``fire()``.  Used to model "something changed, re-check your state"
    wakeups such as doorbell writes and CQ-memory watchpoints without
    busy-poll event storms.  Waiters whose re-check is a shared gate
    (``wait_gated()``) are admitted by FIFO hand-off instead.
"""

from __future__ import annotations

import typing as t
from collections import deque
from heapq import heappush

from .events import HANDOFF, NORMAL, Condition, Event, _PENDING

if t.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource",)

    def __init__(self, sim: "Simulator", resource: "Resource") -> None:
        # hot-path: inline Event field init (one Request per link per
        # transaction — cut-through occupancy burns these constantly).
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: t.Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with strict FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        #: deterministic creation index — use this (never ``id()``) as a
        #: canonical lock-ordering key, or runs stop being reproducible
        self.order = sim._next_resource_order()
        self._holders: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of currently granted requests."""
        return len(self._holders)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    def request(self) -> Request:
        # hot-path: the uncontended grant inlines succeed(req) — same
        # fields, same zero-delay NORMAL enqueue, one fresh sequence
        # number — minus the double-trigger guard a fresh event can't
        # need.  Request construction and the push are flattened too:
        # cut-through occupancy issues one of these per link crossing.
        sim = self.sim
        req = Request.__new__(Request)
        req.sim = sim
        req.callbacks = []
        req._ok = True
        req._processed = False
        req._defused = False
        req.resource = self
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            req._value = req
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), req))
        else:
            req._value = _PENDING
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        if request in self._holders:
            self._holders.discard(request)
        else:
            # Releasing a never-granted request cancels it.
            try:
                self._waiting.remove(request)
                return
            except ValueError:
                raise RuntimeError("releasing a request not issued here") from None
        sim = self.sim
        while self._waiting and len(self._holders) < self.capacity:
            nxt = self._waiting.popleft()
            self._holders.add(nxt)
            nxt._value = nxt
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), nxt))

    def acquire(self) -> t.Generator[Event, t.Any, Request]:
        """Convenience sub-generator: ``req = yield from res.acquire()``."""
        req = self.request()
        yield req
        return req


#: ``Pipe.busy`` of a pipe never held: sorts below every dispatch key.
IDLE: tuple = ()
#: ``Pipe.busy`` while the holder is still acquiring its other pipes (its
#: release key is not known yet): sorts above every dispatch key.
HELD: tuple = (float("inf"),)


class Pipe:
    """One direction of a link: a capacity-1 FIFO held for a TLP's
    serialization time.

    Instead of a release timer per hold, a pipe stores in ``busy`` the
    heap key ``(time, NORMAL, seq, group)`` at which its current hold
    ends, with ``seq`` reserved from the simulator's sequence counter
    when the hold starts — where ``sim.sleep(hold)`` used to take it.
    The pipe is free iff ``busy < sim._cur``: the events dispatched so
    far have passed the release key.  ``group`` is the tuple of
    pipes sharing the key (links with equal serialization time in one
    transaction); it never takes part in a comparison, because ``seq``
    is unique to the key.

    A release event is pushed only when some transaction has to wait:
    the first waiter behind a known key pushes it at exactly that key
    (one heap entry per group), and :func:`hold` pushes it at once if
    waiters queued while the holder was still acquiring (``HELD``).
    Releasing grants the next waiter as :meth:`Resource.release` does —
    a fresh-sequence ``NORMAL`` event at the release instant — so the
    schedule is the one a ``Resource`` plus per-group release timers
    produces, minus the timers nobody waited for (docs/performance.md).

    Usage from a process (``group`` a tuple of pipes; hot paths inline
    :meth:`free` as ``pipe.busy < sim._cur``)::

        for pipe in group:
            if pipe.free():
                pipe.busy = HELD
            else:
                yield pipe.wait()
        hold(sim, group, ns)
    """

    __slots__ = ("sim", "order", "busy", "waiters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: deterministic creation index, shared with Resource.order
        self.order = sim._next_resource_order()
        self.busy: tuple = IDLE
        self.waiters: deque[Event] = deque()

    def free(self) -> bool:
        """True when the pipe can be taken now."""
        return self.busy < self.sim._cur

    def wait(self) -> Event:
        """Queue behind the holder of a pipe that is not free; the event
        triggers when the pipe is granted (``busy`` is then ``HELD``)."""
        busy = self.busy
        if not self.waiters and busy is not HELD:
            # First waiter behind a known hold end: put the release on
            # the heap unless a waiter on another pipe of the group
            # already did.
            for pipe in busy[3]:
                if pipe.waiters:
                    break
            else:
                _push_release(self.sim, busy)
        ev = Event(self.sim)
        self.waiters.append(ev)
        return ev


def hold(sim: "Simulator", group: tuple, ns: int) -> None:
    """Start the hold of ``group`` — pipes the caller has taken — for
    ``ns`` from now, reserving the release key's sequence number."""
    key = (sim._now + ns, NORMAL, next(sim._sequence), group)
    for pipe in group:
        pipe.busy = key
    for pipe in group:
        if pipe.waiters:
            _push_release(sim, key)
            return


def _push_release(sim: "Simulator", key: tuple) -> None:
    ev = Event(sim)
    ev._value = None
    ev.callbacks.append(lambda _ev: _release(sim, key[3]))
    heappush(sim._queue, (key[0], key[1], key[2], ev))


def _release(sim: "Simulator", group: tuple) -> None:
    """Grant each waited-for pipe of a group whose hold ends now, in
    group order."""
    for pipe in group:
        waiters = pipe.waiters
        if waiters:
            ev = waiters.popleft()
            pipe.busy = HELD
            ev._value = None
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), ev))


class DeadlineQueue:
    """Timeouts of one fixed ``delay`` that keep only the oldest entry
    still needed on the event queue.

    Each :meth:`arm` returns an event that fires exactly where
    ``sim.timeout(delay)`` created at that moment would: its key
    ``(now + delay, NORMAL, seq)`` is reserved on the spot.  Deadlines
    armed one after another are FIFO, so only the head of the queue is
    pushed; when it fires, the entries behind it whose every waiter is
    an already-triggered condition (an ``any_of`` the awaited event
    won, for which firing is a no-op) are dropped, and the next one is
    pushed at its reserved key.  The newest entry is never dropped, so
    a drained ``run()`` ends at the same instant as with plain timeouts.
    """

    def __init__(self, sim: "Simulator", delay: int) -> None:
        self.sim = sim
        self.delay = delay
        self._pending: deque[tuple[tuple, Event]] = deque()

    def arm(self) -> Event:
        """A timeout ``delay`` from now (compose it with ``any_of``)."""
        sim = self.sim
        ev = Event(sim)
        ev._value = None
        key = (sim._now + self.delay, NORMAL, next(sim._sequence))
        pending = self._pending
        pending.append((key, ev))
        if len(pending) == 1:
            self._push(key, ev)
        return ev

    def _push(self, key: tuple, ev: Event) -> None:
        ev.callbacks.append(self._fired)
        heappush(self.sim._queue, (key[0], key[1], key[2], ev))

    def _fired(self, _ev: Event) -> None:
        pending = self._pending
        pending.popleft()
        while len(pending) > 1 and _settled(pending[0][1]):
            # Unlink the condition's check so the pair is freed now, not
            # by the cycle collector (a fired event would drop it too).
            pending.popleft()[1].callbacks.clear()
        if pending:
            self._push(*pending[0])


def _settled(ev: Event) -> bool:
    """True when processing ``ev`` would change nothing: every callback
    is the check of a condition that has already triggered."""
    for callback in ev.callbacks:
        cond = getattr(callback, "__self__", None)
        if not isinstance(cond, Condition) or cond._value is _PENDING:
            return False
    return True


class Store:
    """Unbounded FIFO of items with blocking ``get``."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: deque[t.Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: t.Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        # hot-path: inline succeed on the fresh getter event (same
        # ordering — zero-delay NORMAL push with a fresh sequence number).
        if self._getters:
            ev = self._getters.popleft()
            if ev._value is not _PENDING:
                raise RuntimeError(f"{ev!r} already triggered")
            ev._value = item
            sim = self.sim
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), ev))
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next available item."""
        # hot-path
        sim = self.sim
        ev = Event.__new__(Event)
        ev.sim = sim
        ev.callbacks = []
        ev._ok = True
        ev._processed = False
        ev._defused = False
        if self._items:
            ev._value = self._items.popleft()
            heappush(sim._queue,
                     (sim._now, NORMAL, next(sim._sequence), ev))
        else:
            ev._value = _PENDING
            self._getters.append(ev)
        return ev

    def try_get(self) -> t.Any | None:
        """Non-blocking pop; None when empty."""
        return self._items.popleft() if self._items else None


class GatedWait(Event):
    """The event of a :meth:`Signal.wait_gated` wait."""

    __slots__ = ()


class Signal:
    """Broadcast wakeup edge.

    ``wait()`` hands back an event; the next ``fire(value)`` triggers all
    outstanding waits.  Each wait observes at most one fire — callers that
    must not miss edges should re-arm before re-checking state, i.e.::

        while not condition():
            ev = signal.wait()
            yield ev

    **Gated waits.**  A signal built with a ``gate`` (a predicate, True
    while gated waiters must stay parked) also offers ``wait_gated()``
    for waiters whose whole re-check is "park again if ``gate()``".
    Once a gated wait is outstanding, ``fire()`` hands off instead of
    broadcasting: it walks the outstanding waits in FIFO order, one
    waiter per event slot, and a gated waiter whose gate is still
    closed stays parked without being resumed.  Nothing runs between
    such re-parks in a broadcast, so one ``gate()`` call settles a whole
    run of them.  ``reparks`` counts one per skipped re-park — the
    client's ``repro_client_throttled_total`` is one per throttle park
    plus this count, i.e. one more per parked submitter for each
    completion that finds its window still full (docs/qos.md).

    The hand-off reproduces the broadcast's schedule exactly: the first
    waiter runs in the slot the broadcast's first woken event ran in,
    and each further waiter from an event at ``HANDOFF`` priority —
    after every same-instant ``URGENT`` event, before every
    same-instant ``NORMAL`` one, which is where broadcast event k+1 ran
    (docs/performance.md).  A signal with no gated waits outstanding
    keeps the plain broadcast loop.
    """

    def __init__(self, sim: "Simulator",
                 gate: t.Callable[[], bool] | None = None) -> None:
        self.sim = sim
        self.gate = gate
        self._waiters: list[Event] = []
        self._gated = 0          # GatedWait entries in _waiters
        self.fires = 0
        self.reparks = 0

    def wait(self) -> Event:
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def wait_gated(self) -> Event:
        """Like :meth:`wait`, but fires leave the waiter parked while
        ``gate()`` is True (see the class docstring).  Yield the event
        directly and do not abandon it (no ``any_of``, no interrupt):
        a parked wait stays queued, and counted, until the gate opens."""
        if self.gate is None:
            raise RuntimeError("wait_gated() needs a Signal built with a gate")
        ev = GatedWait(self.sim)
        self._waiters.append(ev)
        self._gated += 1
        return ev

    def fire(self, value: t.Any = None) -> None:
        self.fires += 1
        waiters, self._waiters = self._waiters, []
        if not self._gated:
            for ev in waiters:
                ev.succeed(value)
            return
        plain = len(waiters) - self._gated
        self._gated = 0
        _HandOff(self, waiters, plain, value).schedule(NORMAL)


class _HandOff:
    """One fire's walk over the waits outstanding at that fire."""

    __slots__ = ("signal", "waiters", "plain", "value", "pos")

    def __init__(self, signal: Signal, waiters: list[Event], plain: int,
                 value: t.Any) -> None:
        self.signal = signal
        self.waiters = waiters
        self.plain = plain       # plain waits not yet walked
        self.value = value
        self.pos = 0

    def schedule(self, priority: int) -> None:
        ev = Event(self.signal.sim)
        ev._value = None
        ev.callbacks.append(self.step)
        self.signal.sim._push(ev, 0, priority)

    def step(self, _event: Event) -> None:
        """Resume the next waiter that gets in; re-park the gated ones
        passed over on the way."""
        sig = self.signal
        waiters = self.waiters
        n = len(waiters)
        i = self.pos
        closed = None
        while i < n:
            ev = waiters[i]
            if type(ev) is GatedWait:
                if closed is None:
                    closed = sig.gate()
                if closed:
                    if not self.plain:
                        # Only gated waits left, all parked by the same
                        # closed gate.
                        sig._waiters += waiters[i:]
                        sig._gated += n - i
                        sig.reparks += n - i
                        return
                    sig._waiters.append(ev)
                    sig._gated += 1
                    sig.reparks += 1
                    i += 1
                    continue
            else:
                self.plain -= 1
            i += 1
            # Process the waiter's event in this slot.
            ev._value = self.value
            callbacks, ev.callbacks = ev.callbacks, None
            ev._processed = True
            for callback in callbacks:
                callback(ev)
            if i < n:
                self.pos = i
                self.schedule(HANDOFF)
            return
