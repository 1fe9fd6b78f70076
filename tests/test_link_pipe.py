"""Link pipes and deadline queues against the models they replace.

A :class:`~repro.sim.resources.Pipe` keeps the key at which its hold
ends instead of a release timer on the heap.  These tests run the same
transactions twice — once through ``Fabric._occupy`` on pipes, once
through a reference kept here: a capacity-1 ``Resource`` per link
direction, granted inline when free, with one ``sleep(hold)`` release
timer per hold group (the occupancy model pipes replaced) — and require
the same observable schedule: every logged point at the same instant,
inside the same ``(time, priority, sequence)`` event slot, plus equal
link-free probes and an equal drained ``sim.now``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PcieConfig
from repro.pcie.fabric import Fabric
from repro.pcie.topology import Cluster
from repro.sim import DeadlineQueue, Event, Request, Resource, Simulator
from repro.sim.events import NORMAL, URGENT
from repro.sim.resources import HELD, hold

# Endpoints a, b, c hang off switch s0; d, e off s1.  Bandwidths in
# bytes/ns: equal ones give multi-pipe hold groups, s0-s1 is shared.
_LINKS = (("a", "s0", 2.0), ("b", "s0", 1.0), ("c", "s0", 2.0),
          ("s0", "s1", 2.0), ("s1", "d", 4.0), ("s1", "e", 1.0))
_ENDPOINTS = ("a", "b", "c", "d", "e")


class _Rig:
    """One simulator with the topology; ``impl`` is "pipe" or "ref"."""

    def __init__(self, impl: str) -> None:
        self.impl = impl
        self.sim = sim = Simulator(seed=1)
        cfg = PcieConfig()
        self.cluster = cluster = Cluster(sim, cfg)
        self.nodes = {}
        for name in _ENDPOINTS:
            self.nodes[name] = cluster.add_endpoint(name)
        for name in ("s0", "s1"):
            self.nodes[name] = cluster.add_switch(name)
        for x, y, bw in _LINKS:
            cluster.connect(self.nodes[x], self.nodes[y], bandwidth=bw)
        self.fabric = Fabric(sim, cluster, cfg)
        self.pipes = sorted((p for link in cluster.links
                             for p in link._pipes.values()),
                            key=lambda p: p.order)
        # Reference resources in pipe order (same relative lock order).
        self.res = {p: Resource(sim, 1) for p in self.pipes}
        self.log: list = []

    # -- occupancy, both ways ----------------------------------------------

    def occupy(self, src: str, dst: str, wire: int):
        path = self.cluster.path(self.nodes[src], self.nodes[dst])
        if self.impl == "pipe":
            yield from self.fabric._occupy(path, wire)
        else:
            yield from self._ref_occupy(path, wire)

    def _ref_occupy(self, path, wire):
        sim = self.sim
        plan = self.fabric._build_occupy_plan(path, wire)
        if not plan:
            return
        pipes, max_hold, groups = plan
        held = {}
        for pipe in pipes:
            res = self.res[pipe]
            if not res._holders and not res._waiting:
                req = Request(sim, res)      # inline grant, no event
                req._value = req
                res._holders.add(req)
            else:
                req = res.request()
                yield req
            held[pipe] = req
        for ns, group in groups:
            sim.sleep(ns).callbacks.append(
                lambda _ev, g=group: [self.res[p].release(held[p])
                                      for p in g])
        yield sim.sleep(max_hold)

    def free(self) -> tuple:
        if self.impl == "pipe":
            return tuple(p.free() for p in self.pipes)
        return tuple(not self.res[p]._holders for p in self.pipes)

    # -- script -------------------------------------------------------------

    def note(self, *what) -> None:
        self.log.append((*what, self.sim.now, self.sim._cur[:3]))

    def tx(self, tag, src, dst, wire):
        self.note("acquire", tag, self.free())
        yield from self.occupy(src, dst, wire)
        self.note("filled", tag)

    def delayed_tx(self, tag, start, boot, src, dst, wire):
        # ``start`` may be a tuple of successive waits: the last timeout
        # is then armed mid-run, after holds begun earlier.
        for step in (start if isinstance(start, tuple) else (start,)):
            yield self.sim.timeout(step)
        if boot == URGENT:
            # A process spawned now boots in an URGENT slot of this
            # instant, below the NORMAL slots that already ran.
            self.sim.process(self.tx(tag, src, dst, wire))
        else:
            yield from self.tx(tag, src, dst, wire)

    def add(self, op) -> None:
        sim = self.sim
        kind = op[0]
        if kind == "tx":
            _k, tag, start, boot, src, dst, wire = op
            sim.process(self.delayed_tx(tag, start, boot, src, dst, wire))
        else:
            _k, tag, at, prio = op
            ev = Event(sim)
            ev._value = None
            ev.callbacks.append(
                lambda _ev: self.note("probe", tag, self.free()))
            sim._schedule(ev, at, prio)

    def play(self, script, split=None) -> list:
        for op in script:
            self.add(op)
        if split is not None:
            self.sim.run(until=split)
            self.note("after-deadline", self.free())
        self.sim.run()
        self.note("drained", self.free())
        return self.log


def _both(script, split=None):
    got = _Rig("pipe").play(script, split)
    want = _Rig("ref").play(script, split)
    assert got == want
    return got


def _fill_times(log):
    return {entry[1]: entry[2] for entry in log if entry[0] == "filled"}


class TestPipeSchedule:
    def test_uncontended_hold_frees_after_its_release_key(self):
        # 16 B at 2 B/ns: the hold of a->s0 and s0->c ends at t=8, in a
        # slot after the probes scheduled at t=8 before the run began.
        log = _both([("tx", 0, 0, NORMAL, "a", "c", 16),
                     ("probe", "mid", 7, NORMAL),
                     ("probe", "same-instant", 8, NORMAL),
                     ("probe", "end", 9, URGENT)])
        probes = {e[1]: e[2] for e in log if e[0] == "probe"}
        assert not all(probes["mid"])
        assert not all(probes["same-instant"])
        assert all(probes["end"])

    def test_waiter_queues_while_holder_is_still_acquiring(self):
        # t0 holds s0->s1 until t=32; t1 takes b->s0, then must wait
        # for s0->s1; t2 then queues on b->s0 while t1 still holds it
        # with no release key yet.  When t1 finally sets its keys it
        # must push b->s0's release itself.
        script = [("tx", 0, 0, NORMAL, "a", "d", 64),
                  ("tx", 1, 1, NORMAL, "b", "d", 8),
                  ("tx", 2, 2, NORMAL, "b", "c", 8)]
        log = _both(script)
        fills = _fill_times(log)
        assert fills[1] > 32 and fills[2] > fills[1]

    def test_waiters_on_two_pipes_of_one_group_share_one_entry(self):
        # a->s0 and s0->s1 have equal holds: one group, one key.  A
        # waiter on each must not push two heap entries with the same
        # key (heapq would then compare events and raise).
        script = [("tx", 0, 0, NORMAL, "a", "d", 32),
                  ("tx", 1, 1, NORMAL, "a", "c", 8),
                  ("tx", 2, 1, NORMAL, "c", "d", 8)]
        rig = _Rig("pipe")
        rig.play(script)
        assert rig.log == _Rig("ref").play(script)
        fills = _fill_times(rig.log)
        assert fills[1] >= 16 and fills[2] >= 16

    @pytest.mark.parametrize("prio", [URGENT, NORMAL])
    @pytest.mark.parametrize("late", [False, True])
    def test_free_test_at_the_release_instant(self, prio, late):
        # The hold of a->c ends in the NORMAL slot its key reserved at
        # t=0.  A timeout armed before that (at t=0) fires at t=8 ahead
        # of the release slot; one armed at t=4 fires after it.  A
        # process booted from there runs in an URGENT slot of t=8 that
        # sorts below the release key either way, yet must see the
        # release only in the late case.
        start = (4, 4) if late else 8
        log = _both([("tx", 0, 0, NORMAL, "a", "c", 16),
                     ("tx", 1, start, prio, "a", "c", 16)])
        seen = [e[2] for e in log if e[0] == "acquire" and e[1] == 1][0]
        assert all(seen) == late
        assert _fill_times(log) == {0: 8, 1: 16}

    def test_contended_urgent_boot_waits_for_the_release(self):
        log = _both([("tx", 0, 0, NORMAL, "a", "c", 16),
                     ("tx", 1, 0, NORMAL, "a", "c", 16),
                     ("tx", 2, 8, URGENT, "a", "c", 16)])
        assert sorted(_fill_times(log).values()) == [8, 16, 24]

    @pytest.mark.parametrize("split", [4, 8, 9, 20])
    def test_check_right_after_run_until_deadline(self, split):
        rig = _Rig("pipe")
        _both([("tx", 0, 0, NORMAL, "a", "d", 16),
               ("tx", 1, 3, NORMAL, "b", "e", 16)], split=split)
        rig.play([("tx", 0, 0, NORMAL, "a", "d", 16)], split=split)
        mid = [e for e in rig.log if e[0] == "after-deadline"][0][1]
        assert all(mid) == (split >= 8)

    def test_drained_run_ends_at_the_same_instant(self):
        script = [("tx", i, i * 3, NORMAL, "a", "e", 40) for i in range(4)]
        pipe, ref = _Rig("pipe"), _Rig("ref")
        assert pipe.play(script) == ref.play(script)
        assert pipe.sim.now == ref.sim.now
        # The pipes kept their release timers off the heap.
        assert pipe.sim.events_processed < ref.sim.events_processed


def _ops():
    start = st.one_of(st.integers(0, 60),
                      st.tuples(st.integers(0, 30), st.integers(0, 30)))
    tx = st.tuples(st.just("tx"), start,
                   st.sampled_from([NORMAL, URGENT]),
                   st.sampled_from(_ENDPOINTS), st.sampled_from(_ENDPOINTS),
                   st.integers(1, 96))
    probe = st.tuples(st.just("probe"), st.integers(0, 120),
                      st.sampled_from([NORMAL, URGENT]))
    return st.lists(st.one_of(tx, probe), min_size=1, max_size=14)


@settings(max_examples=150, deadline=None)
@given(ops=_ops(), split=st.one_of(st.none(), st.integers(0, 150)))
def test_random_transactions_match_the_reference(ops, split):
    script = []
    for i, op in enumerate(ops):
        if op[0] == "tx":
            _k, start, boot, src, dst, wire = op
            if src != dst:
                script.append(("tx", i, start, boot, src, dst, wire))
        else:
            script.append(("probe", i, op[1], op[2]))
    _both(script, split)


class TestPipeApi:
    def test_hold_pushes_release_for_a_waiter_queued_while_held(self):
        rig = _Rig("pipe")
        sim = rig.sim
        pipe = rig.pipes[0]
        got = []

        def holder():
            assert pipe.free()
            pipe.busy = HELD
            yield sim.timeout(5)          # still "acquiring" elsewhere
            hold(sim, (pipe,), 10)        # a waiter is queued already
            yield sim.timeout(10)

        def waiter():
            yield sim.timeout(1)
            assert not pipe.free()
            yield pipe.wait()
            got.append(sim.now)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert got == [15]
        assert pipe.busy is HELD            # the waiter never released it


class _Cmd:
    """Commands with a timeout: ``done`` fires after ``service`` ns."""

    def __init__(self, queued: bool, delay: int) -> None:
        self.sim = Simulator()
        self.delay = delay
        self.queue = DeadlineQueue(self.sim, delay) if queued else None
        self.log: list = []

    def command(self, tag, start, service):
        sim = self.sim
        yield sim.timeout(start)
        done = sim.timeout(service, value=tag)
        expiry = (self.queue.arm() if self.queue is not None
                  else sim.timeout(self.delay))
        outcome = yield sim.any_of((done, expiry))
        self.log.append((tag, "done" if done in outcome else "expired",
                         sim.now, sim._cur[:3]))

    def play(self, cmds) -> list:
        for tag, (start, service) in enumerate(cmds):
            self.sim.process(self.command(tag, start, service))
        self.sim.run()
        self.log.append(("drained", self.sim.now))
        return self.log


class TestDeadlineQueue:
    def test_live_expiry_still_wins_its_any_of(self):
        cmds = [(0, 10), (1, 500), (2, 20), (3, 30)]
        log = _Cmd(True, 100).play(cmds)
        assert log == _Cmd(False, 100).play(cmds)
        assert [e[1] for e in log[:-1]].count("expired") == 1
        assert (1, "expired", 101) == log[3][:3]

    def test_keeps_one_entry_on_the_heap(self):
        rig = _Cmd(True, 1_000)
        sim = rig.sim
        fired = rig.queue._fired
        samples = []

        def sample():
            for _ in range(20):
                yield sim.timeout(50)
                on_heap = sum(1 for entry in sim._queue
                              if entry[3].callbacks
                              and fired in entry[3].callbacks)
                samples.append((len(rig.queue._pending), on_heap))

        sim.process(sample())
        rig.play([(i * 10, 5) for i in range(60)])
        assert max(armed for armed, _ in samples) > 50
        assert max(on_heap for _, on_heap in samples) == 1

    @settings(max_examples=100, deadline=None)
    @given(cmds=st.lists(st.tuples(st.integers(0, 400),
                                   st.integers(1, 300)),
                         min_size=1, max_size=25),
           delay=st.integers(1, 200))
    def test_fires_where_plain_timeouts_fire(self, cmds, delay):
        assert _Cmd(True, delay).play(cmds) == _Cmd(False, delay).play(cmds)
