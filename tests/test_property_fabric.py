"""Property-based tests for PCIe fabric invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PcieConfig
from repro.pcie import (Cluster, Fabric, NtbFunction, completion_cost,
                        read_request_cost, write_cost)
from repro.sim import Simulator
from repro.units import MiB


def build_pair(seed):
    """Two hosts over an NTB path (adapter-switch-adapter)."""
    sim = Simulator(seed=seed)
    cfg = PcieConfig()
    cluster = Cluster(sim, cfg)
    a = cluster.add_host("a", dram_size=64 * MiB)
    b = cluster.add_host("b", dram_size=64 * MiB)
    ad_a = cluster.add_switch("a.ad", host=a)
    ad_b = cluster.add_switch("b.ad", host=b)
    x = cluster.add_switch("x")
    cluster.connect(a.rc, ad_a)
    cluster.connect(b.rc, ad_b)
    cluster.connect(ad_a, x)
    cluster.connect(ad_b, x)
    fabric = Fabric(sim, cluster, cfg)
    ntb_a = NtbFunction(sim, "ntb-a", aperture=16 * MiB)
    ntb_a.install(a, ad_a, fabric)
    ntb_b = NtbFunction(sim, "ntb-b", aperture=16 * MiB)
    ntb_b.install(b, ad_b, fabric)
    return sim, cluster, fabric, a, b, ntb_a, ntb_b


class TestPostedOrderingProperty:
    @given(st.lists(st.tuples(st.integers(0, 63),    # slot
                              st.integers(1, 64),    # size
                              st.integers(0, 400)),  # gap ns
                    min_size=2, max_size=25),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_flow_posted_writes_never_reorder(self, ops, seed):
        """Any sequence of posted writes from one initiator to one
        remote host is delivered in submission order, regardless of
        sizes, gaps and per-chip jitter."""
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(seed)
        region = b.alloc_dma(64 * 128)
        window = ntb_a.map_window(b, region, 64 * 128)
        deliveries = []
        original = b.memory.write

        def spy(addr, data):
            deliveries.append((sim.now, bytes(data)[:4]))
            original(addr, data)

        b.memory.write = spy

        def proc(sim):
            for i, (slot, size, gap) in enumerate(ops):
                payload = i.to_bytes(4, "little") + bytes(size)
                fabric.post_write(a.rc, a, window + slot * 64, payload)
                if gap:
                    yield sim.timeout(gap)

        sim.process(proc(sim))
        sim.run()
        assert len(deliveries) == len(ops)
        times = [t for t, _ in deliveries]
        order = [int.from_bytes(tag, "little") for _, tag in deliveries]
        assert order == list(range(len(ops)))
        assert times == sorted(times)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_read_your_writes_across_ntb(self, seed):
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(seed)
        region = b.alloc_dma(4096)
        window = ntb_a.map_window(b, region, 4096)
        out = {}

        def proc(sim):
            yield from fabric.write(a.rc, a, window, b"fence-me")
            data = yield from fabric.read(a.rc, a, window, 8)
            out["data"] = data

        sim.process(proc(sim))
        sim.run()
        assert out["data"] == b"fence-me"


class TestLatencyProperties:
    @given(st.integers(1, 16))
    @settings(max_examples=8, deadline=None)
    def test_reads_cost_more_than_writes_of_same_size(self, pages):
        """Non-posted reads pay a round trip; posted writes one way."""
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(11)
        nbytes = pages * 256
        region = b.alloc_dma(max(nbytes, 4096))
        window = ntb_a.map_window(b, region, max(nbytes, 4096))
        out = {}

        def proc(sim):
            start = sim.now
            yield from fabric.write(a.rc, a, window, b"w" * nbytes)
            out["write"] = sim.now - start
            start = sim.now
            yield from fabric.read(a.rc, a, window, nbytes)
            out["read"] = sim.now - start

        sim.process(proc(sim))
        sim.run()
        assert out["read"] > out["write"]

    def test_local_resolution_has_no_crossings(self):
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(12)
        addr = a.alloc_dma(4096)
        res = fabric.resolve(a, addr, 64)
        assert res.crossings == 0
        assert res.host is a

    def test_window_resolution_counts_one_crossing(self):
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(13)
        region = b.alloc_dma(4096)
        window = ntb_a.map_window(b, region, 4096)
        res = fabric.resolve(a, window, 64)
        assert res.crossings == 1
        assert res.host is b
        assert res.addr == region


class TestWireCostProperties:
    @given(st.integers(1, 1 << 20), st.integers(1, 1 << 20))
    @settings(max_examples=60, deadline=None)
    def test_wire_cost_monotone_in_payload(self, x, y):
        cfg = PcieConfig()
        small, big = min(x, y), max(x, y)
        assert write_cost(small, cfg).bytes_on_wire <= \
            write_cost(big, cfg).bytes_on_wire
        assert completion_cost(small, cfg).bytes_on_wire <= \
            completion_cost(big, cfg).bytes_on_wire
        assert read_request_cost(small, cfg).packets <= \
            read_request_cost(big, cfg).packets

    @given(st.integers(1, 1 << 18))
    @settings(max_examples=60, deadline=None)
    def test_packet_counts_match_chunking(self, size):
        cfg = PcieConfig()
        w = write_cost(size, cfg)
        assert (w.packets - 1) * cfg.max_payload_size < size
        assert size <= w.packets * cfg.max_payload_size


class TestNtbWindowLookup:
    @given(st.lists(st.one_of(
        st.tuples(st.just("map"), st.integers(1, 16)),      # pages
        st.tuples(st.just("unmap"), st.integers(0, 1000)),  # which window
    ), min_size=1, max_size=30),
        st.lists(st.tuples(st.integers(0, 96 * 4096),       # BAR offset
                           st.integers(1, 3 * 4096)),       # length
                 max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_bisect_lookup_matches_linear_scan(self, ops, queries):
        sim, cluster, fabric, a, b, ntb_a, ntb_b = build_pair(21)
        region = b.alloc_dma(64 * 4096)
        bar_base = ntb_a.bars[ntb_a.BAR_INDEX].base
        mapped = []

        def linear(offset, length):
            for window in ntb_a._windows.values():
                if window.contains(offset, length):
                    return window
            return None

        for op, arg in ops:
            if op == "map":
                mapped.append(ntb_a.map_window(b, region, arg * 4096))
            elif mapped:
                ntb_a.unmap_window(mapped.pop(arg % len(mapped)))
            probes = list(queries)
            for window in ntb_a._windows.values():
                end = window.bar_offset + window.size
                probes += [(window.bar_offset, 1), (end - 1, 1), (end, 1),
                           (max(window.bar_offset - 1, 0), 2),
                           (window.bar_offset, window.size),
                           (window.bar_offset, window.size + 1)]
            for offset, length in probes:
                assert ntb_a._find_window(offset, length) is \
                    linear(offset, length)
            assert ntb_a._offsets == sorted(ntb_a._windows)
        assert sorted(bar_base + off for off in ntb_a._windows) == \
            sorted(mapped)
