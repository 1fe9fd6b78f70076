"""Unit tests for Resource / Store / Signal primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Signal, Simulator, Store


@pytest.fixture()
def sim():
    return Simulator(seed=5)


class TestResource:
    def test_capacity_one_serialises(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(sim, tag):
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(100)
            res.release(req)
            spans.append((tag, start, sim.now))

        for tag in range(3):
            sim.process(worker(sim, tag))
        sim.run()
        assert spans == [(0, 0, 100), (1, 100, 200), (2, 200, 300)]

    def test_capacity_n_allows_parallelism(self, sim):
        res = Resource(sim, capacity=2)
        finished = []

        def worker(sim, tag):
            req = res.request()
            yield req
            yield sim.timeout(100)
            res.release(req)
            finished.append((tag, sim.now))

        for tag in range(4):
            sim.process(worker(sim, tag))
        sim.run()
        assert finished == [(0, 100), (1, 100), (2, 200), (3, 200)]

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        grants = []

        def worker(sim, tag, arrive):
            yield sim.timeout(arrive)
            req = res.request()
            yield req
            grants.append(tag)
            yield sim.timeout(50)
            res.release(req)

        for tag, arrive in [(0, 0), (1, 5), (2, 10), (3, 12)]:
            sim.process(worker(sim, tag, arrive))
        sim.run()
        assert grants == [0, 1, 2, 3]

    def test_release_cancels_waiting_request(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()  # granted instantly
        waiter = res.request()
        assert res.queued == 1
        res.release(waiter)  # cancel before grant
        assert res.queued == 0
        res.release(holder)
        assert res.count == 0

    def test_release_foreign_request_raises(self, sim):
        res1 = Resource(sim, capacity=1)
        res2 = Resource(sim, capacity=1)
        req = res1.request()
        with pytest.raises(RuntimeError):
            res2.release(req)

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_acquire_subgenerator(self, sim):
        res = Resource(sim, capacity=1)
        out = []

        def worker(sim):
            req = yield from res.acquire()
            out.append(sim.now)
            yield sim.timeout(10)
            res.release(req)

        sim.process(worker(sim))
        sim.process(worker(sim))
        sim.run()
        assert out == [0, 10]

    def test_context_manager_releases(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(sim, tag):
            with res.request() as req:
                yield req
                order.append(tag)
                yield sim.timeout(20)

        sim.process(worker(sim, "a"))
        sim.process(worker(sim, "b"))
        sim.run()
        assert order == ["a", "b"]
        assert res.count == 0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = []

        def getter(sim):
            got.append((yield store.get()))

        sim.process(getter(sim))
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def getter(sim):
            item = yield store.get()
            got.append((sim.now, item))

        def putter(sim):
            yield sim.timeout(40)
            store.put("late")

        sim.process(getter(sim))
        sim.process(putter(sim))
        sim.run()
        assert got == [(40, "late")]

    def test_fifo_ordering_of_items_and_getters(self, sim):
        store = Store(sim)
        got = []

        def getter(sim, tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(getter(sim, 0))
        sim.process(getter(sim, 1))

        def putter(sim):
            yield sim.timeout(1)
            store.put("first")
            store.put("second")

        sim.process(putter(sim))
        sim.run()
        assert got == [(0, "first"), (1, "second")]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(1)
        assert len(store) == 1
        assert store.try_get() == 1
        assert store.try_get() is None


class TestSignal:
    def test_fire_wakes_all_waiters(self, sim):
        sig = Signal(sim)
        woken = []

        def waiter(sim, tag):
            value = yield sig.wait()
            woken.append((tag, sim.now, value))

        for tag in range(3):
            sim.process(waiter(sim, tag))

        def firer(sim):
            yield sim.timeout(25)
            sig.fire("edge")

        sim.process(firer(sim))
        sim.run()
        assert woken == [(0, 25, "edge"), (1, 25, "edge"), (2, 25, "edge")]

    def test_each_wait_sees_one_fire(self, sim):
        sig = Signal(sim)
        counts = []

        def waiter(sim):
            seen = 0
            for _ in range(2):
                yield sig.wait()
                seen += 1
            counts.append(seen)

        def firer(sim):
            for _ in range(2):
                yield sim.timeout(10)
                sig.fire()

        sim.process(waiter(sim))
        sim.process(firer(sim))
        sim.run()
        assert counts == [2]
        assert sig.fires == 2

    def test_fire_with_no_waiters_is_noop(self, sim):
        sig = Signal(sim)
        sig.fire()
        assert sig.fires == 1


class _BroadcastSignal(Signal):
    """Reference model: a gated wait is a plain broadcast wait, so every
    fire wakes every parked waiter and each re-checks the gate itself."""

    def wait_gated(self):
        return self.wait()


class _ThrottleRig:
    """A submission window guarded the way the distributed client's
    admission throttle guards its queue: submitters park on a gated wait
    while ``window`` commands are outstanding, a completion fires the
    signal before the outstanding count drops, widening or lifting the
    window fires it, and so does a shutdown.  Every observable step lands
    in ``log`` as ``(time, what, tag)``."""

    def __init__(self, broadcast: bool) -> None:
        self.sim = Simulator(seed=1)
        self.window = None
        self.running = True
        self.inflight = 0
        self.parks = 0
        self.log = []
        signal_cls = _BroadcastSignal if broadcast else Signal
        self.sig = signal_cls(self.sim, gate=self.closed)

    def closed(self) -> bool:
        return (self.running and self.window is not None
                and self.inflight >= self.window)

    @property
    def throttled(self) -> int:
        return self.parks + self.sig.reparks

    def submitter(self, tag, hold):
        while self.closed():
            self.parks += 1
            yield self.sig.wait_gated()
        if not self.running:
            self.log.append((self.sim.now, "released", tag))
            return
        self.inflight += 1
        self.log.append((self.sim.now, "admit", tag))
        self.sim.process(self.child(tag))
        yield self.sim.timeout(hold)
        self.complete(tag)

    def child(self, tag):
        # Runs from an URGENT boot event at the admission instant.
        self.log.append((self.sim.now, "boot", tag))
        yield self.sim.timeout(0)

    def plain(self, tag):
        # Re-arms once: the second wait joins the queue mid-walk.
        for _ in range(2):
            yield self.sig.wait()
            self.log.append((self.sim.now, "plain", tag))

    def complete(self, tag):
        self.sig.fire()
        self.inflight -= 1
        # A same-instant NORMAL event queued right after the fire: every
        # waiter the fire lets in must run before it.
        after = self.sim.event()
        after.callbacks.append(
            lambda _ev: self.log.append((self.sim.now, "after", tag)))
        after.succeed()

    def set_window(self, window):
        prev, self.window = self.window, window
        if window is None or (prev is not None and window > prev):
            self.sig.fire()

    def shutdown(self):
        self.running = False
        self.sig.fire()

    def play(self, script):
        """Run ``(gap_ns, op, arg)`` steps from one driver process."""
        def driver():
            for tag, (gap, op, arg) in enumerate(script):
                if gap:
                    yield self.sim.timeout(gap)
                if op == "submit":
                    self.sim.process(self.submitter(tag, arg))
                elif op == "plain":
                    self.sim.process(self.plain(tag))
                elif op == "window":
                    self.set_window(arg)
                elif op == "shutdown":
                    self.shutdown()
        self.sim.process(driver())
        self.sim.run()
        return self


def _both(script):
    """Play ``script`` on the hand-off signal and on the broadcast model;
    assert they agree on everything observable and return both rigs."""
    handoff = _ThrottleRig(broadcast=False).play(script)
    ref = _ThrottleRig(broadcast=True).play(script)
    assert handoff.log == ref.log
    assert handoff.throttled == ref.throttled
    assert handoff.sim.now == ref.sim.now
    assert len(handoff.sig._waiters) == len(ref.sig._waiters)
    assert handoff.sig.reparks == ref.parks - handoff.parks
    return handoff, ref


class TestGatedWait:
    def test_gated_wait_needs_a_gate(self, sim):
        with pytest.raises(RuntimeError):
            Signal(sim).wait_gated()

    def test_plain_and_gated_waiters_keep_fifo_order(self):
        script = [(0, "window", 1), (0, "submit", 100), (5, "submit", 50),
                  (0, "plain", None), (0, "submit", 50), (0, "submit", 50),
                  (0, "plain", None), (0, "submit", 50)]
        handoff, ref = _both(script)
        wakes = [(what, tag) for _t, what, tag in handoff.log
                 if what in ("admit", "plain")]
        # The first completion admits 2, wakes the plain waiters 3 and 6
        # in their FIFO places and re-parks 4, 5 and 7 around them.  3
        # re-arms before 4 re-parks, so the next completion wakes it
        # ahead of admitting 4; gated waiters get in first come first.
        assert wakes[:6] == [("admit", 1), ("admit", 2), ("plain", 3),
                             ("plain", 6), ("plain", 3), ("admit", 4)]
        assert [w for w in wakes if w[0] == "admit"] == [
            ("admit", tag) for tag in (1, 2, 4, 5, 7)]
        assert handoff.sim.events_processed < ref.sim.events_processed

    @pytest.mark.parametrize("widened", [3, None])
    def test_widening_or_lifting_admits_several_in_fifo_order(self,
                                                               widened):
        script = [(0, "window", 1)]
        script += [(0, "submit", 1000) for _ in range(5)]
        script += [(10, "window", widened)]
        handoff, _ref = _both(script)
        admits = [(t, tag) for t, what, tag in handoff.log
                  if what == "admit"]
        lifted = 5 if widened is None else 3
        assert admits[:lifted] == [(0, 1)] + [
            (10, tag) for tag in range(2, lifted + 1)]

    def test_child_boot_runs_before_next_admission(self):
        script = [(0, "window", 1)]
        script += [(0, "submit", 100) for _ in range(4)]
        script += [(10, "window", None)]
        handoff, _ref = _both(script)
        at_lift = [(what, tag) for t, what, tag in handoff.log if t == 10]
        assert at_lift == [("admit", 2), ("boot", 2), ("admit", 3),
                           ("boot", 3), ("admit", 4), ("boot", 4)]

    def test_admissions_run_before_same_instant_normal_events(self):
        script = [(0, "window", 2)]
        script += [(0, "submit", 100) for _ in range(2)]
        script += [(0, "submit", 100) for _ in range(3)]
        script += [(50, "window", 4)]
        handoff, _ref = _both(script)
        at_100 = [what for t, what, _tag in handoff.log if t == 100]
        # Completion of 1 admits 5; completion of 2 admits nobody new.
        assert at_100[0] == "admit" and "after" in at_100

    def test_shutdown_releases_every_parked_submitter(self):
        script = [(0, "window", 1)]
        script += [(0, "submit", 10_000) for _ in range(6)]
        script += [(0, "plain", None), (20, "shutdown", None)]
        handoff, _ref = _both(script)
        released = [(t, what, tag) for t, what, tag in handoff.log
                    if t == 20]
        assert released == [(20, "released", tag) for tag in range(2, 7)] \
            + [(20, "plain", 7)]
        assert not handoff.sig._waiters

    def test_counter_equals_the_broadcast_count(self):
        script = [(0, "window", 1)]
        script += [(0, "submit", 7) for _ in range(40)]
        handoff, ref = _both(script)
        # Each of the 39 parked submitters re-parks at every completion
        # until its turn: 39 parks + (38 + 37 + ... + 0) skipped wakes.
        assert ref.throttled == 39 + sum(range(39))
        assert handoff.sig.reparks == sum(range(39))
        assert handoff.parks == 39

    def test_signal_without_gated_waiters_broadcasts(self, sim):
        sig = Signal(sim, gate=lambda: True)
        waits = [sig.wait() for _ in range(3)]
        sig.fire("edge")
        # Plain broadcast: every wait is queued at once, no hand-off step.
        assert [entry[3] for entry in sorted(sim._queue,
                                             key=lambda e: e[:3])] == waits
        assert all(ev.value == "edge" for ev in waits)

    @given(st.lists(st.one_of(
        st.tuples(st.integers(0, 30), st.just("submit"),
                  st.integers(1, 60)),
        st.tuples(st.integers(0, 30), st.just("plain"), st.none()),
        st.tuples(st.integers(0, 30), st.just("window"),
                  st.one_of(st.none(), st.integers(1, 3))),
        st.tuples(st.integers(0, 200), st.just("shutdown"), st.none()),
    ), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_random_schedules_match_the_broadcast(self, script):
        _both(script)
