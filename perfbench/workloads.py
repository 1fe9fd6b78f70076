"""The benchmark's four workloads, built only from the public builders.

Each workload splits into a *set-up* (build the testbed, start the
manager, create every client's queue pairs) and a *measured phase*
(drive the seeded I/O load to completion).  The measured phase returns
an :class:`Outcome`: the simulated latencies of every completed I/O,
the accounting needed for the correctness checks, and the layers'
public counters as deltas over the phase.

Work per run is fixed by the workload and the seed, never by the host
clock, so two runs at one seed simulate exactly the same I/Os.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from perfbench.hosttime import HostMeter

from repro.faults import FaultEvent, FaultPlan
from repro.qos import AdmissionThrottle
from repro.qos.runner import QOS_SLO
from repro.scenarios import (cluster, noisy_neighbor, ours_local,
                             ours_remote, scale_out_cluster)
from repro.telemetry.spans import BOUNDARIES, STAGES
from repro.workloads import (FioJob, OpenLoopJob, fio_generator,
                             open_loop_generator)

#: I/Os of the qd1-remote measured phase (QD1 randrw 50/50).
QD1_IOS = 4000
#: QD1 I/Os per pass of the Fig. 10 reference, local and remote.
REFERENCE_IOS = 2000


@dataclasses.dataclass
class Outcome:
    """What one measured phase produced (simulated quantities only)."""

    reads: np.ndarray                 # latency of completed reads (ns)
    writes: np.ndarray                # latency of completed writes (ns)
    #: per-tenant latency of every completed I/O, both ops (ns)
    tenants: dict[str, np.ndarray]
    #: tenants whose worst p99 is ``bystander_p99_ns``
    bystanders: list[str]
    #: completed I/Os per simulated second of each tenant's own run
    tenant_iops: dict[str, float]
    attempted: int                    # I/Os the generators issued
    completed: int                    # I/Os that came back at all
    ok: int                           # I/Os that came back with status 0
    sim_ns: int                       # simulated length of the phase
    counters: dict[str, float]        # layer counters, phase deltas
    checks: list[tuple[str, bool, str]]


# -- counters -------------------------------------------------------------


@dataclasses.dataclass
class Parts:
    """The live components whose public counters the benchmark reads."""

    sim: t.Any
    fabric: t.Any
    ntbs: list
    controllers: list
    managers: list
    clients: list                     # DistributedNvmeClient objects
    volumes: list = dataclasses.field(default_factory=list)
    telemetry: t.Any = None
    sanitizer: t.Any = None
    registry: t.Any = None


def snapshot(parts: Parts) -> dict[str, float]:
    """Cumulative public counters of every layer, by metric stem."""
    fabric = parts.fabric
    arbiters = [sq.arbiter for c in parts.controllers
                for sq in c.sqs.values() if sq.arbiter is not None]
    tele = parts.telemetry
    hists = tele.hists if tele is not None else None
    return {
        "sim.events": parts.sim.events_processed,
        "pcie.posted_writes": fabric.posted_writes,
        "pcie.nonposted_reads": fabric.reads,
        "pcie.bytes": fabric.posted_bytes + fabric.read_bytes,
        "pcie.ntb_translations": sum(n.translations for n in parts.ntbs),
        "nvme.sqe_fetches": sum(c.fetches for c in parts.controllers),
        "nvme.fetch_retries": sum(c.fetch_retries
                                  for c in parts.controllers),
        "nvme.media_accesses": sum(c.media.reads + c.media.writes
                                   for c in parts.controllers),
        "driver.cqes_forwarded": sum(m.cqes_forwarded
                                     for m in parts.managers),
        "driver.manager_rpcs": sum(m.rpcs_served for m in parts.managers),
        "driver.retries": sum(c.retries for c in parts.clients),
        "driver.timeouts": sum(c.timeouts for c in parts.clients),
        "driver.subclient_ios": sum(c.completed for c in parts.clients),
        "qos.grants": sum(sum(a.grant_counts) for a in arbiters),
        "qos.throttled_total": sum(c.throttled_ios for c in parts.clients),
        "telemetry.hist_records": (
            sum(sum(hists.totals(k)) for k in hists.keys())
            if hists is not None else 0),
        "telemetry.sampler_ticks": (
            tele.sampler.ticks if tele is not None
            and tele.sampler is not None else 0),
        "sanitizer.findings": (len(parts.sanitizer.findings)
                               if parts.sanitizer is not None else 0),
        "cluster.failovers": sum(v.failovers for v in parts.volumes),
        "cluster.degraded_writes": sum(v.degraded_writes
                                       for v in parts.volumes),
        "cluster.path_errors": sum(v.path_errors for v in parts.volumes),
        "faults.injected_total": (sum(parts.registry.injected.values())
                                  if parts.registry is not None else 0),
    }


#: counters reported as totals: manager RPCs are all issued in set-up
CUMULATIVE = ("driver.manager_rpcs",)


def _delta(before: dict[str, float], after: dict[str, float]
           ) -> dict[str, float]:
    return {k: after[k] - (0 if k in CUMULATIVE else before[k])
            for k in after}


def stage_durations(tele: t.Any) -> dict[str, np.ndarray]:
    """Stage durations (ns) of every span that took the canonical path.

    Shared-QP windows also stamp ``arb-granted`` between the doorbell
    and the fetch; it is left out of the seven stages and reported
    separately as ``arb-wait`` (doorbell landed -> fetch granted).
    """
    rows, waits = [], []
    for span in tele.spans.spans:
        if not span.finished:
            continue
        marks = [(n, t_ns) for n, t_ns in span.marks if n != "arb-granted"]
        if tuple(n for n, _t in marks) != BOUNDARIES:
            continue
        rows.append([span.start_ns] + [t_ns for _n, t_ns in marks]
                    + [span.end_ns])
        granted = [t_ns for n, t_ns in span.marks if n == "arb-granted"]
        if granted:
            waits.append(granted[0] - marks[2][1])
    durations = np.diff(np.array(rows, dtype=np.int64).reshape(-1, 8))
    stages = {name: durations[:, i] for i, name in enumerate(STAGES)}
    stages["arb-wait"] = np.array(waits, dtype=np.int64)
    return stages


# -- closed-loop helpers --------------------------------------------------


def _closed_loop(sim: t.Any, pairs: list[tuple[t.Any, FioJob]],
                 meter: HostMeter | None = None
                 ) -> tuple[list[t.Any], int]:
    """Run fio jobs side by side; returns (results, simulated ns)."""
    start = sim.now
    procs = [sim.process(fio_generator(Tap(dev, meter), job))
             for dev, job in pairs]
    _run_metered(sim, sim.all_of(procs), meter)
    return [p.value for p in procs], sim.now - start


def _run_metered(sim: t.Any, until: t.Any, meter: HostMeter | None) -> None:
    if meter is not None:
        meter.mark()
    sim.run(until=until)
    if meter is not None:
        meter.mark()


def _fio_outcome(pairs, results, sim_ns, parts, before,
                 checks: list[tuple[str, bool, str]]) -> Outcome:
    attempted = sum(job.total_ios for _dev, job in pairs)
    ok = sum(r.ios for r in results)
    completed = sum(r.ios + r.errors for r in results)
    for (dev, job), res in zip(pairs, results):
        if dev.completed != job.total_ios:
            checks.append(("one-completion-per-io", False,
                           f"{dev.name}: {dev.completed} completions "
                           f"for {job.total_ios} I/Os"))
            break
    else:
        checks.append(("one-completion-per-io", completed == attempted,
                       f"{completed} of {attempted} I/Os completed"))
    tenants = {dev.name: np.concatenate([r.read_latencies.values(),
                                         r.write_latencies.values()])
               for (dev, _job), r in zip(pairs, results)}
    return Outcome(
        reads=np.concatenate([r.read_latencies.values() for r in results]),
        writes=np.concatenate([r.write_latencies.values()
                               for r in results]),
        tenants=tenants, bystanders=sorted(tenants),
        tenant_iops={dev.name: r.iops for (dev, _job), r
                     in zip(pairs, results)},
        attempted=attempted, completed=completed, ok=ok, sim_ns=sim_ns,
        counters=_delta(before, snapshot(parts)), checks=checks)


# -- the workloads ----------------------------------------------------------


class Workload:
    """Set-up and measured phase of one benchmark workload."""

    name = ""
    #: whether the workload's own configuration records telemetry spans
    telemetry_on = False

    def build(self, seed: int, telemetry: bool = False) -> t.Any:
        """Set-up: build and start the scenario (queues created)."""
        raise NotImplementedError

    def run(self, state: t.Any, meter: HostMeter | None = None) -> Outcome:
        """Measured phase: drive the load, return what it produced.

        ``meter`` times the phase in slices (see :mod:`.hosttime`)."""
        raise NotImplementedError


class Qd1Remote(Workload):
    """One remote client, QD1 4 KiB randrw 50/50, instrumentation off."""

    name = "qd1-remote"

    def build(self, seed, telemetry=False):
        return ours_remote(seed=seed, telemetry=telemetry)

    def run(self, sc, meter=None):
        bed = sc.testbed
        parts = Parts(sc.sim, bed.fabric, bed.ntbs, [bed.nvme],
                      [sc.extras["manager"]], [sc.device],
                      telemetry=sc.telemetry)
        before = snapshot(parts)
        pairs = [(sc.device, qd1_job(QD1_IOS))]
        results, sim_ns = _closed_loop(sc.sim, pairs, meter)
        return _fio_outcome(pairs, results, sim_ns, parts, before, [])


def qd1_job(ios: int) -> FioJob:
    return FioJob(name="qd1", rw="randrw", rwmixread=50, bs=4096,
                  iodepth=1, total_ios=ios)


def fig10_reference(seed: int, ios: int = REFERENCE_IOS
                    ) -> dict[str, np.ndarray]:
    """The paper's Fig. 10 pair: one QD1 job on ``ours_remote`` and the
    same job on ``ours_local``; latencies keyed ``<scenario>-<op>``."""
    out = {}
    for label, builder in (("remote", ours_remote), ("local", ours_local)):
        sc = builder(seed=seed)
        (res,), _ = _closed_loop(sc.sim, [(sc.device, qd1_job(ios))])
        if res.errors:
            raise RuntimeError(f"{label} reference: {res.errors} errors")
        out[f"{label}-read"] = res.read_latencies.values()
        out[f"{label}-write"] = res.write_latencies.values()
    return out


class SharedQpScaleout(Workload):
    """64 clients, 37 of them tenants of manager-hosted shared QPs."""

    name = "shared-qp-scaleout"
    ios_per_client = 80

    def build(self, seed, telemetry=False):
        return scale_out_cluster(64, seed=seed,
                                 telemetry=telemetry)

    def run(self, sc, meter=None):
        bed = sc.testbed
        parts = Parts(sc.sim, bed.fabric, bed.ntbs, [bed.nvme],
                      [sc.manager], list(sc.clients),
                      telemetry=sc.telemetry)
        before = snapshot(parts)
        pairs = [(c, FioJob(name=f"c{i}", rw="randrw", rwmixread=70,
                            bs=4096, iodepth=2,
                            total_ios=self.ios_per_client))
                 for i, c in enumerate(sc.clients)]
        results, sim_ns = _closed_loop(sc.sim, pairs, meter)
        return _fio_outcome(pairs, results, sim_ns, parts, before, [])


#: permanent stall of one of the four devices, 1 ms into the phase
STALL_NVME1 = FaultPlan((FaultEvent(at_ns=1_000_000, action="ctrl_stall",
                                    target="ctrl:nvme1",
                                    duration_ns=0),))


class ClusterFailover(Workload):
    """Replicated volumes over 4 devices; one device stalls for good."""

    name = "cluster-failover"
    telemetry_on = True
    ios_per_client = 300

    def build(self, seed, telemetry=False):
        return cluster(n_clients=8, n_devices=4, width=2,
                       replicas=2, seed=seed, faults=True,
                       plan=STALL_NVME1, telemetry=True, sanitizer=True)

    def run(self, sc, meter=None):
        bed = sc.testbed
        parts = Parts(sc.sim, bed.fabric, bed.ntbs, sc.controllers,
                      list(sc.managers.values()), list(sc.subclients),
                      volumes=list(sc.volumes), telemetry=sc.telemetry,
                      sanitizer=sc.sanitizer, registry=sc.registry)
        before = snapshot(parts)
        sc.injector.start()
        pairs = [(v, FioJob(name=f"v{i}", rw="randrw", rwmixread=70,
                            bs=4096, iodepth=4,
                            total_ios=self.ios_per_client,
                            seed_stream=f"fio{i}"))
                 for i, v in enumerate(sc.volumes)]
        results, sim_ns = _closed_loop(sc.sim, pairs, meter)
        findings = len(sc.sanitizer.findings)
        checks = [("sharesan-clean", findings == 0,
                   f"{findings} ShareSan findings")]
        return _fio_outcome(pairs, results, sim_ns, parts, before, checks)


@dataclasses.dataclass
class _QosState:
    sc: t.Any
    sampler: t.Any
    throttle: t.Any

    @property
    def telemetry(self) -> t.Any:
        return self.sc.telemetry


class QosNoisyNeighbor(Workload):
    """Open loop: a 1M IOPS aggressor and three 50k IOPS bystanders on
    one shared QP, wfq arbitration plus the admission throttle.

    The set-up and load mirror :func:`repro.qos.run_qos` with
    ``policy="wfq", throttle=True``, except that the bystanders mix in
    30 % writes so the write path is measured under arbitration too.
    """

    name = "qos-noisy-neighbor"
    telemetry_on = True
    horizon_ns = 8_000_000
    n_bystanders = 3

    def build(self, seed, telemetry=False):
        sc = noisy_neighbor(n_bystanders=self.n_bystanders, policy="wfq",
                            throttle_window=1, seed=seed)
        tele = sc.telemetry
        tele.enable_histograms()
        # The sampler must exist before enable_slo for its interval to
        # stick (the hub reuses an existing sampler).
        sampler = tele.enable_sampler(interval_ns=100_000, start=False)
        slo = tele.enable_slo(QOS_SLO)
        throttle = AdmissionThrottle(sc.sim, sc.testbed.config.qos, slo)
        throttle.attach(sc.clients)
        return _QosState(sc, sampler, throttle)

    def jobs(self, queue_depth: int) -> list[OpenLoopJob]:
        jobs = [OpenLoopJob(name="aggressor", rw="randread",
                            rate_iops=1_000_000.0,
                            arrival="poisson", total_arrivals=None,
                            runtime_ns=self.horizon_ns,
                            inflight_cap=queue_depth, seed_stream="qos")]
        jobs += [OpenLoopJob(name=f"bystander{i}", rw="randrw",
                             rwmixread=70, rate_iops=50_000.0,
                             arrival="poisson", total_arrivals=None,
                             runtime_ns=self.horizon_ns, inflight_cap=16,
                             seed_stream="qos")
                 for i in range(1, 1 + self.n_bystanders)]
        return jobs

    def run(self, state, meter=None):
        sc, tele = state.sc, state.sc.telemetry
        bed = sc.testbed
        parts = Parts(sc.sim, bed.fabric, bed.ntbs, [bed.nvme],
                      [sc.manager], list(sc.clients), telemetry=tele)
        before = snapshot(parts)
        sim = sc.sim
        start = sim.now
        state.sampler.start()
        state.throttle.start()
        jobs = self.jobs(sc.clients[0].queue_depth)
        taps = [Tap(c, meter) for c in sc.clients]
        procs = [sim.process(open_loop_generator(tap, job))
                 for tap, job in zip(taps, jobs)]
        _run_metered(sim, sim.all_of(procs), meter)
        state.sampler.stop()
        state.throttle.stop()
        sim_ns = sim.now - start
        results = [p.value for p in procs]
        counters = _delta(before, snapshot(parts))
        counters["workloads.max_backlog_ns"] = max(
            r.max_backlog_ns for r in results)
        counters["workloads.capped_arrivals"] = sum(
            r.capped_arrivals for r in results)

        attempted = sum(r.issued for r in results)
        completed = sum(r.completed for r in results)
        ok = completed - sum(r.errors for r in results)
        device_done = sum(c.completed for c in sc.clients)
        throttled = [c.tenant for c in sc.clients if c.throttled_ios]
        aggressor = sc.clients[0].tenant
        checks = [
            ("one-completion-per-io",
             completed == attempted and device_done == attempted,
             f"{completed} of {attempted} arrivals completed, "
             f"{device_done} device completions"),
            ("only-aggressor-throttled", throttled == [aggressor],
             f"throttled tenants: {throttled}"),
        ]
        # Latencies are timed from the scheduled arrival.  The throttled
        # aggressor's backlog is by design, so the read/write latency
        # figures cover the bystanders only.
        reads, writes, tenants = [], [], {}
        for client, res in zip(sc.clients, results):
            tenants[client.tenant] = res.latencies.values()
        for tap, res in zip(taps[1:], results[1:]):
            lat = res.latencies.values()
            is_write = np.array(tap.writes, dtype=bool)
            if len(is_write) != len(lat):
                raise RuntimeError(f"{tap.name}: {len(is_write)} ops "
                                   f"for {len(lat)} latencies")
            reads.append(lat[~is_write])
            writes.append(lat[is_write])
        return Outcome(
            reads=np.concatenate(reads), writes=np.concatenate(writes),
            tenants=tenants,
            bystanders=[c.tenant for c in sc.clients[1:]],
            tenant_iops={c.tenant: r.achieved_iops
                         for c, r in zip(sc.clients, results)},
            attempted=attempted, completed=completed, ok=ok,
            sim_ns=sim_ns, counters=counters, checks=checks)


class Tap:
    """Forwards to a block device and watches each completion: counts
    it on the host meter and notes, in completion order, whether each
    successful request was a write.

    Open-loop results keep one latency list for both ops, recorded as
    completions arrive; this callback runs on the same completion event
    just before the generator records the latency, so the two lists
    line up.  It adds no event, so simulated time is unchanged.
    """

    def __init__(self, device: t.Any, meter: HostMeter | None) -> None:
        self._device = device
        self._meter = meter
        self.writes: list[bool] = []

    def __getattr__(self, name: str) -> t.Any:
        return getattr(self._device, name)

    def submit(self, request: t.Any) -> t.Any:
        done = self._device.submit(request)
        done.callbacks.append(self._note)
        return done

    def _note(self, event: t.Any) -> None:
        request = event.value
        if request.ok:
            self.writes.append(request.op == "write")
        if self._meter is not None:
            self._meter.tick()


WORKLOADS: dict[str, t.Callable[[], Workload]] = {
    "qd1-remote": Qd1Remote,
    "shared-qp-scaleout": SharedQpScaleout,
    "qos-noisy-neighbor": QosNoisyNeighbor,
    "cluster-failover": ClusterFailover,
}
