"""Self-time math and the ledger's patching, on hand-made spans."""

import random

import numpy as np

from perfbench import ledger as L


def brute_self(start, end, parent):
    """Reference: count covered nanoseconds one by one."""
    out = []
    for i in range(len(start)):
        covered = set()
        for j in range(len(start)):
            if parent[j] == i:
                lo, hi = max(start[j], start[i]), min(end[j], end[i])
                covered.update(range(lo, hi))
        out.append(end[i] - start[i] - len(covered))
    return out


def selfs(spans):
    start, end, parent = zip(*spans)
    return list(L.self_times(np.array(start), np.array(end),
                             np.array(parent)))


class TestSelfTimes:
    def test_nested_children(self):
        #        root [0,100] > a [10,60] > b [20,30]
        spans = [(0, 100, -1), (10, 60, 0), (20, 30, 1)]
        assert selfs(spans) == [50, 40, 10]
        assert sum(selfs(spans)) == 100

    def test_overlapping_children_counted_once(self):
        spans = [(0, 100, -1), (10, 50, 0), (40, 70, 0)]
        assert selfs(spans)[0] == 100 - 60

    def test_child_sticking_out_is_clipped(self):
        spans = [(0, 100, -1), (90, 120, 0), (-5, 5, 0)]
        assert selfs(spans)[0] == 100 - 10 - 5

    def test_generator_resumes(self):
        # One sim.run span resuming generator G three times; the second
        # resume calls into another layer.
        spans = [(0, 100, -1),                    # 0 root
                 (2, 98, 0),                      # 1 sim.run
                 (10, 20, 1), (30, 45, 1),        # 2, 3 resumes of G
                 (33, 36, 3),                     # 4 call made by G
                 (70, 80, 1)]                     # 5 resume of G
        s = selfs(spans)
        assert s[2] + s[3] + s[5] == 10 + 12 + 10
        assert s[1] == 96 - 35
        assert sum(s) == 100

    def test_clock_readings_far_from_zero(self):
        # perf_counter_ns counts from boot: hours in, readings pass 1e13
        # while a trace of a million spans lasts milliseconds.
        pairs = 500_000
        k = np.arange(pairs, dtype=np.int64)
        start = np.empty(2 * pairs, dtype=np.int64)
        end = np.empty(2 * pairs, dtype=np.int64)
        parent = np.empty(2 * pairs, dtype=np.int64)
        start[0::2], end[0::2], parent[0::2] = 4 * k, 4 * k + 3, -1
        start[1::2], end[1::2], parent[1::2] = 4 * k + 1, 4 * k + 2, 2 * k
        s = L.self_times(start + 10 ** 13, end + 10 ** 13, parent)
        assert (s[0::2] == 2).all() and (s[1::2] == 1).all()

    def test_matches_brute_force_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(40):
            spans = [(0, 200, -1)]
            for _ in range(rng.randint(1, 25)):
                p = rng.randrange(len(spans))
                lo = rng.randint(spans[p][0] - 20, spans[p][1])
                spans.append((lo, lo + rng.randint(0, 60), p))
            start, end, parent = map(list, zip(*spans))
            assert selfs(spans) == brute_self(start, end, parent)


class Device:
    def op(self, x):
        return x + 1

    def steps(self, n):
        for i in range(n):
            got = yield i
            self.op(got)
        return "done"


class SubDevice(Device):
    pass


class TestLedger:
    def test_patch_and_uninstall_restore_classes(self):
        ledger = L.Ledger()
        own, inherited = Device.__dict__["op"], Device.op
        ledger.patch(Device, "op", "nvme")
        ledger.patch(SubDevice, "op", "cluster")
        assert SubDevice().op(1) == 2
        ledger.uninstall()
        assert Device.__dict__["op"] is own
        assert "op" not in SubDevice.__dict__
        assert SubDevice.op is inherited

    def test_spans_partition_the_root(self):
        ledger = L.Ledger()
        ledger.patch(Device, "op", "nvme")
        ledger.patch(Device, "steps", "driver", generator=True)
        try:
            ledger.reset()
            dev = Device()
            gen = dev.steps(3)
            assert next(gen) == 0
            out = [gen.send(i) for i in (10, 11)]
            try:
                gen.send(12)
            except StopIteration as stop:
                assert stop.value == "done"
            root = ledger.close_root()
        finally:
            ledger.uninstall()
        assert out == [1, 2]
        spans = ledger.arrays()
        s = L.self_times(spans["start"], spans["end"], spans["parent"])
        assert int(s.sum()) == root
        layers, entries = L.layer_totals(ledger.sites, spans["site"], s)
        assert entries == {"measured-phase": 1, "Device.op": 3,
                           "Device.steps": 4}
        assert sum(layers.values()) == root

    def test_layer_of_file(self):
        assert L.layer_of_file("/x/src/repro/pcie/fabric.py") == "pcie"
        assert L.layer_of_file("/x/src/repro/sisci/segments.py") == "pcie"
        assert L.layer_of_file("/x/src/repro/scenarios/qos.py") == "other"
        assert L.layer_of_file("/x/perfbench/run.py") == "other"
