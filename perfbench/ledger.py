"""Per-layer host-time ledger for the traced run.

:class:`Ledger` wraps each layer's public entry points — on their
classes, from outside the program — so that every call, and every
resume of a generator the simulator drives, records one *span*: the
entry point ("site") it belongs to, host start and end
(``perf_counter_ns``) and the span that was open when it began (its
parent).  Spans stay in memory, in flat arrays, until the run ends.

A layer's self time is the total duration of its spans minus the part
of each span that its child spans cover (:func:`self_times`); the root
span covers the whole measured phase, and its self time is ``other``.

Generator resumes are attributed to the layer that owns the generator's
code (its ``repro.<package>``), so the event kernel's own work, the
driver's processes and the workload generators land in separate rows.
"""

from __future__ import annotations

import typing as t
from array import array
from time import perf_counter_ns

import numpy as np

#: Ledger rows, in report order; ``other`` is the root span's self time
#: plus code outside the named packages.
LAYERS = ("sim", "pcie", "memory", "nvme", "driver", "cluster", "qos",
          "telemetry", "sanitizer", "faults", "workloads", "other")

#: ``repro.<package>`` -> ledger layer for process generators.  SISCI
#: and SmartIO are the NTB programming interface, so they count as pcie.
PACKAGE_LAYER = {
    "sim": "sim", "pcie": "pcie", "sisci": "pcie", "smartio": "pcie",
    "memory": "memory", "nvme": "nvme", "driver": "driver",
    "cluster": "cluster", "qos": "qos", "telemetry": "telemetry",
    "sanitizer": "sanitizer", "faults": "faults",
    "workloads": "workloads",
}


def layer_of_file(filename: str) -> str:
    """Ledger layer of a source file, from its ``repro/<pkg>/`` path."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return PACKAGE_LAYER.get(parts[i + 1], "other")
    return "other"


class Ledger:
    """Span store plus the class patches that feed it."""

    def __init__(self) -> None:
        self.sites: list[tuple[str, str]] = []     # (layer, entry point)
        self._site_index: dict[tuple[str, str], int] = {}
        self.site = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = [-1]
        #: process constructions seen while active (no span of their own)
        self.spawns = 0
        self._patches: list[tuple[type, str, t.Any, bool]] = []
        self._code_site: dict[t.Any, int] = {}

    # -- spans --------------------------------------------------------------

    def site_id(self, layer: str, entry: str) -> int:
        key = (layer, entry)
        sid = self._site_index.get(key)
        if sid is None:
            sid = self._site_index[key] = len(self.sites)
            self.sites.append(key)
        return sid

    def reset(self) -> None:
        """Drop every span (set-up traffic) and open the root span."""
        for column in (self.site, self.parent, self.start, self.end):
            del column[:]
        self.stack[:] = [-1]
        self.spawns = 0
        root = self.site_id("other", "measured-phase")
        self.site.append(root)
        self.parent.append(-1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(0)

    def close_root(self) -> int:
        """End the root span; returns its duration in ns."""
        if self.stack != [-1, 0]:
            raise RuntimeError(f"unbalanced spans: stack {self.stack}")
        self.end[0] = perf_counter_ns()
        self.stack.pop()
        return self.end[0] - self.start[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: np.frombuffer(getattr(self, name), dtype=np.int64)
                for name in ("site", "parent", "start", "end")}

    # -- wrappers -----------------------------------------------------------

    def call(self, sid: int, fn: t.Callable, *args: t.Any,
             **kwargs: t.Any) -> t.Any:
        """``fn(*args, **kwargs)``, recorded as one span of site ``sid``."""
        start = self.start
        idx = len(start)
        self.site.append(sid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter_ns()
            self.stack.pop()

    def timed(self, fn: t.Callable, sid: int) -> t.Callable:
        """``fn`` with each call recorded as one span of site ``sid``."""
        call = self.call

        def wrapper(*args, **kwargs):
            return call(sid, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, fn: t.Callable, sid: int) -> t.Callable:
        """``fn`` (a generator function) with each resume timed."""
        def wrapper(*args, **kwargs):
            return TimedGen(fn(*args, **kwargs), sid, self)
        wrapper.__wrapped__ = fn
        return wrapper

    def process_site(self, generator: t.Any) -> int:
        """Site of a process generator: its code's layer."""
        code = getattr(generator, "gi_code", None)
        sid = self._code_site.get(code)
        if sid is None:
            layer = (layer_of_file(code.co_filename) if code is not None
                     else "other")
            sid = self._code_site[code] = self.site_id(
                layer, f"process:{layer}")
        return sid

    # -- patching -----------------------------------------------------------

    def patch(self, cls: type, name: str, layer: str,
              generator: bool = False, entry: str | None = None) -> None:
        """Replace ``cls.name`` with its timed version until
        :meth:`uninstall`; inherited attributes are shadowed, not
        overwritten."""
        original = getattr(cls, name)
        own = name in cls.__dict__
        sid = self.site_id(layer, entry or f"{cls.__name__}.{name}")
        wrap = self.timed_generator if generator else self.timed
        self._patches.append((cls, name, cls.__dict__.get(name), own))
        setattr(cls, name, wrap(original, sid))

    def patch_process(self, process_cls: type) -> None:
        """Wrap every process generator so each resume is a span."""
        original = process_cls.__init__
        ledger = self

        def __init__(proc, sim, generator, name=None):
            ledger.spawns += 1
            if type(generator) is TimedGen:
                inner_name = generator.name
            else:
                inner_name = getattr(generator, "__name__", "process")
                generator = TimedGen(generator,
                                     ledger.process_site(generator),
                                     ledger)
            original(proc, sim, generator, name or inner_name)
        self._patches.append((process_cls, "__init__", original, True))
        process_cls.__init__ = __init__

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            cls, name, original, own = self._patches.pop()
            if own:
                setattr(cls, name, original)
            else:
                delattr(cls, name)


class TimedGen:
    """Generator proxy timing each ``send``/``throw`` as one span.

    It forwards the generator protocol unchanged, so a simulator
    process or a ``yield from`` drives it exactly like the generator.
    """

    __slots__ = ("gen", "sid", "ledger", "name")

    def __init__(self, gen: t.Any, sid: int, ledger: Ledger) -> None:
        self.gen = gen
        self.sid = sid
        self.ledger = ledger
        self.name = getattr(gen, "__name__", "process")

    def __iter__(self) -> "TimedGen":
        return self

    def __next__(self) -> t.Any:
        return self.send(None)

    def send(self, value: t.Any) -> t.Any:
        return self.ledger.call(self.sid, self.gen.send, value)

    def throw(self, *exc: t.Any) -> t.Any:
        return self.ledger.call(self.sid, self.gen.throw, *exc)

    def close(self) -> None:
        self.gen.close()


def install(ledger: Ledger) -> None:
    """Patch every layer's public entry points (see module docstring)."""
    from repro.cluster import ClusterVolume
    from repro.driver import BlockDevice, NvmeManager
    from repro.faults import FaultPointRegistry
    from repro.memory.physmem import HostMemory
    from repro.nvme import NvmeController
    from repro.nvme.media import Media
    from repro.pcie import Fabric, NtbFunction
    from repro.qos import DrrArbiter, FifoArbiter, StrictArbiter
    from repro.sanitizer import ShareSan
    from repro.sim import Simulator
    from repro.sim.process import Process
    from repro.telemetry.hist import LatencyHistograms
    from repro.telemetry.spans import SpanRecorder

    ledger.patch_process(Process)
    for name in ("run", "process", "sleep"):
        ledger.patch(Simulator, name, "sim")
    ledger.patch(Fabric, "post_write", "pcie")
    ledger.patch(Fabric, "write", "pcie", generator=True)
    ledger.patch(Fabric, "read", "pcie", generator=True)
    ledger.patch(NtbFunction, "translate", "pcie")
    ledger.patch(HostMemory, "read", "memory")
    ledger.patch(HostMemory, "write", "memory")
    ledger.patch(NvmeController, "mmio_write", "nvme")
    ledger.patch(Media, "access", "nvme", generator=True)
    ledger.patch(BlockDevice, "submit", "driver")
    ledger.patch(ClusterVolume, "submit", "cluster")
    ledger.patch(ClusterVolume, "_driver_submit", "cluster",
                 generator=True)
    ledger.patch(NvmeManager, "_serve", "driver", generator=True,
                 entry="NvmeManager.rpc")
    ledger.patch(NvmeManager, "_forward_cqe", "driver")
    for cls in (FifoArbiter, DrrArbiter, StrictArbiter):
        for name in ("select", "on_fetch"):
            ledger.patch(cls, name, "qos", entry=f"Arbiter.{name}")
    ledger.patch(LatencyHistograms, "record_io", "telemetry")
    for name in ("begin", "finish", "bind", "unbind", "mark_cmd"):
        ledger.patch(SpanRecorder, name, "telemetry")
    for name in sorted(vars(ShareSan)):
        if name.startswith("on_"):
            ledger.patch(ShareSan, name, "sanitizer", entry="ShareSan.hook")
    for name in ("link_blocked", "tlp_dropped", "tlp_delay_ns",
                 "command_aborted"):
        ledger.patch(FaultPointRegistry, name, "faults",
                     entry="FaultPointRegistry.check")
    ledger.patch(FaultPointRegistry, "stall_barrier", "faults",
                 generator=True, entry="FaultPointRegistry.check")


# -- the math ---------------------------------------------------------------


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval.

    Children may nest, overlap each other or stick out of the parent;
    overlapping cover is counted once.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(start)
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    if not len(kids):
        return own
    p = parent[kids]
    cs = np.maximum(start[kids], start[p])
    ce = np.minimum(end[kids], end[p])
    keep = ce > cs
    p, cs, ce = p[keep], cs[keep], ce[keep]
    if not len(p):
        return own
    # Shift each parent's children into a disjoint band so one running
    # maximum over the (parent, start)-sorted list merges within groups.
    # Bands are as wide as the whole trace, measured from its earliest
    # start, so clock readings far from zero cannot overflow int64.
    base = int(start.min())
    width = int(end.max()) - base + 1
    if n * width >= 2 ** 62:
        raise OverflowError(f"{n} spans over {width} ns overflow int64")
    offset = p * width - base
    cs = cs + offset
    ce = ce + offset
    order = np.lexsort((cs, p))
    p, cs, ce = p[order], cs[order], ce[order]
    reach = np.maximum.accumulate(ce)
    prev = np.concatenate(([np.iinfo(np.int64).min], reach[:-1]))
    covered = np.maximum(ce - np.maximum(cs, prev), 0)
    return own - np.bincount(p, weights=covered, minlength=n).astype(
        np.int64)


def layer_totals(ledger_sites: list[tuple[str, str]], site: np.ndarray,
                 selfs: np.ndarray) -> tuple[dict[str, int],
                                             dict[str, int]]:
    """(self ns per layer, span count per entry point)."""
    per_site = np.bincount(site, weights=selfs,
                           minlength=len(ledger_sites))
    counts = np.bincount(site, minlength=len(ledger_sites))
    layers = dict.fromkeys(LAYERS, 0)
    entries: dict[str, int] = {}
    for sid, (layer, entry) in enumerate(ledger_sites):
        layers[layer] += int(per_site[sid])
        entries[entry] = entries.get(entry, 0) + int(counts[sid])
    return layers, entries
