"""End-to-end determinism: identical seeds must give bit-identical
results, independent of object identities (``id()`` ordering) and
process state.  Guards the reproducibility claim in EXPERIMENTS.md."""

import hashlib
import zlib

import numpy as np

from repro.config import DEFAULT_CONFIG, QosConfig, replace
from repro.faults import FaultEvent, FaultPlan
from repro.scenarios import (chaos_cluster, cluster, multihost,
                             nvmeof_remote, ours_remote,
                             scale_out_cluster)
from repro.sim.rng import RngRegistry
from repro.workloads import FioJob, fio_generator, run_fio, run_fio_many


class TestScenarioDeterminism:
    def test_ours_remote_identical_latency_series(self):
        def run(seed):
            scenario = ours_remote(seed=seed)
            result = run_fio(scenario.device,
                             FioJob(rw="randrw", total_ios=150))
            return (result.read_latencies.values().tolist(),
                    result.write_latencies.values().tolist())

        assert run(1234) == run(1234)
        assert run(1234) != run(1235)

    def test_nvmeof_identical_latency_series(self):
        def run(seed):
            scenario = nvmeof_remote(seed=seed)
            result = run_fio(scenario.device,
                             FioJob(rw="randread", total_ios=100))
            return result.read_latencies.values().tolist()

        assert run(77) == run(77)

    def test_multihost_contention_is_deterministic(self):
        """Contention paths (shared links, media channels, canonical
        lock ordering) must not depend on object ids."""

        def run():
            scenario = multihost(3, seed=555, queue_depth=4)
            jobs = [(c, FioJob(name=f"j{i}", rw="randread", iodepth=4,
                               total_ios=120, region_lbas=1 << 20))
                    for i, c in enumerate(scenario.clients)]
            results = run_fio_many(jobs)
            return [r.read_latencies.values().tolist() for r in results]

        first = run()
        second = run()
        assert first == second


class TestSharedQpDeterminism:
    """The 64-client shared-QP scale-out replays bit-identically — the
    arbitration order on the shared SQs, the mailbox demux, and every
    exported telemetry byte are functions of the seed alone."""

    def _run(self):
        scn = scale_out_cluster(64, seed=909, queue_depth=4,
                                telemetry=True)
        jobs = [(c, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                           total_ios=10, seed_stream=f"fio{i}"))
                for i, c in enumerate(scn.clients)]
        results = run_fio_many(jobs)
        assert all(r.ios == 10 and r.errors == 0 for r in results)
        tele = scn.telemetry
        assert tele is not None
        return tele.prometheus_text(), tele.perfetto_json()

    def test_telemetry_bytes_identical_across_runs(self):
        first = self._run()
        second = self._run()
        assert first == second
        assert "repro_qp_tenants" in first[0]

    def test_route_cache_off_changes_nothing(self, monkeypatch):
        """The route cache is a pure-perf memo: disabling it must not
        perturb a single exported byte (see tests/test_perf_caches.py
        for the private-QP equivalent)."""
        baseline = self._run()
        monkeypatch.setenv("REPRO_NO_ROUTE_CACHE", "1")
        assert self._run() == baseline


class TestQosDeterminism:
    """QoS is opt-in: a disabled ``QosConfig`` — whatever its other
    fields say — must leave every exported byte of a shared-QP run
    untouched, and an *enabled* run must itself be a pure function of
    the seed."""

    def _digest(self, config=None, seed=606):
        scn = multihost(4, config=config, seed=seed, queue_depth=4,
                        sharing="force", telemetry=True)
        jobs = [(c, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                           total_ios=15, seed_stream=f"fio{i}"))
                for i, c in enumerate(scn.clients)]
        results = run_fio_many(jobs)
        assert all(r.ios == 15 and r.errors == 0 for r in results)
        tele = scn.telemetry
        assert tele is not None
        series = [r.read_latencies.values().tolist() for r in results]
        return (tele.prometheus_text(), tele.perfetto_json()), series

    def test_disabled_qos_config_is_inert(self):
        """enabled=False with aggressive-looking knobs == the default
        config, byte for byte — no arbiter, no extra metrics."""
        loud = replace(DEFAULT_CONFIG, qos=QosConfig(
            enabled=False, policy="wfq", quantum=9, weights=(3, 1),
            throttle_window=5))
        baseline_bytes, baseline_series = self._digest()
        loud_bytes, loud_series = self._digest(config=loud)
        assert loud_bytes == baseline_bytes
        assert loud_series == baseline_series
        assert "repro_qos_grants_total" not in baseline_bytes[0]

    def test_enabled_qos_run_is_seed_deterministic(self):
        from repro.qos import run_qos

        def digest(seed):
            run = run_qos("wfq", throttle=True, seed=seed,
                          horizon_ns=2_000_000)
            return (run.prometheus_text(), run.timeseries_jsonl(),
                    run.slo_report_json(), run.perfetto_json())

        first = digest(31)
        assert first == digest(31)
        assert "repro_qos_grants_total" in first[0]
        assert digest(32) != first


class TestClusterDeterminism:
    """Multi-device cluster runs fall under the same bit-identical
    discipline: placement, striping, multipath retries and every
    exported telemetry byte are functions of the seed alone."""

    def _digest(self, seed=777, sanitizer=False):
        scn = cluster(n_clients=8, n_devices=2, width=2, replicas=2,
                      seed=seed, queue_depth=4, telemetry=True,
                      sanitizer=sanitizer)
        jobs = [(vol, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                             total_ios=12, seed_stream=f"fio{i}"))
                for i, vol in enumerate(scn.volumes)]
        results = run_fio_many(jobs)
        assert all(r.ios == 12 and r.errors == 0 for r in results)
        tele = scn.telemetry
        assert tele is not None
        series = [r.read_latencies.values().tolist() for r in results]
        return (tele.prometheus_text(), tele.perfetto_json()), series

    def test_cluster_digest_identical_across_runs(self):
        first_bytes, first_series = self._digest()
        second_bytes, second_series = self._digest()
        assert first_bytes == second_bytes
        assert first_series == second_series
        assert "repro_cluster_paths_live" in first_bytes[0]
        assert self._digest(seed=778)[1] != first_series

    def test_sanitizer_is_zero_perturbation_on_cluster(self):
        on_bytes, on_series = self._digest(sanitizer=True)
        off_bytes, off_series = self._digest(sanitizer=False)
        assert on_bytes == off_bytes
        assert on_series == off_series

    KILL = FaultPlan((FaultEvent(150_000, "ctrl_stall", "ctrl:nvme1",
                                 duration_ns=0),))

    def _chaos_trace(self, seed):
        scn = cluster(n_clients=3, n_devices=2, width=2, replicas=2,
                      seed=seed, queue_depth=4, faults=True,
                      plan=self.KILL)
        scn.injector.start()
        procs = [scn.sim.process(fio_generator(
            vol, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                        total_ios=80, seed_stream=f"fio{i}")))
            for i, vol in enumerate(scn.volumes)]
        scn.sim.run(until=scn.sim.timeout(500_000_000))
        assert all(p.triggered for p in procs)
        return scn.trace_log()

    def test_device_kill_replay_is_bit_identical(self):
        first = self._chaos_trace(881)
        assert first == self._chaos_trace(881)
        assert any(r[1] == "cluster" for r in first)    # failover seen
        assert first != self._chaos_trace(882)


class TestChaosDeterminism:
    """A ``(seed, plan)`` pair fully determines a chaos run — faults,
    retries, lease reclaims, everything in the trace."""

    PLAN = FaultPlan((
        FaultEvent(200_000, "link_down", "link:host2",
                   duration_ns=500_000),
        FaultEvent(400_000, "tlp_drop", "link:host3", probability=0.1,
                   duration_ns=800_000),
    ))

    def _trace(self, seed):
        sc = chaos_cluster(n_clients=3, plan=self.PLAN, seed=seed)
        sc.injector.start()
        procs = [sc.sim.process(fio_generator(
            client, FioJob(name=f"j{i}", rw="randrw", iodepth=4,
                           total_ios=150, seed_stream=f"fio{i}")))
            for i, client in enumerate(sc.clients)]
        sc.sim.run(until=sc.sim.timeout(100_000_000))
        assert all(p.triggered for p in procs)
        return sc.trace_log()

    def test_same_seed_and_plan_replay_bit_identical(self):
        first = self._trace(321)
        second = self._trace(321)
        assert first == second
        assert any(r[1] == "fault" for r in first)      # faults fired
        assert first != self._trace(322)

    def test_random_plan_schedule_depends_only_on_seed(self):
        def make(seed):
            return FaultPlan.random(
                RngRegistry(seed), "chaos", horizon_ns=5_000_000,
                link_points=["link:a", "link:b"],
                ctrl_points=["ctrl:n"], client_points=["client:c"],
                n_events=12, kill_at_most=1)

        assert make(11) == make(11)
        assert make(11) != make(12)


class TestPinnedDigests:
    """Results pinned across commits, not just across two runs.

    The other classes here replay a scenario twice and compare, which
    cannot notice a change that moves every run the same way.  These
    digests were recorded once and must never change: a refactor of the
    kernel, fabric or builders that alters any client's completion
    count, error count, byte count or latency sum, or any namespace's
    contents, fails here.  Each digest is SHA-256 over every client's
    ``(completed, errors, bytes, lat_sum)`` and every controller's
    ``(name, CRC32 of its namespace extents)``."""

    #: link flap, lossy cable and a controller stall, none fatal
    FAULTS = FaultPlan((
        FaultEvent(200_000, "link_down", "link:host2",
                   duration_ns=500_000),
        FaultEvent(400_000, "tlp_drop", "link:host3", probability=0.1,
                   duration_ns=800_000),
        FaultEvent(900_000, "ctrl_stall", "ctrl:nvme0",
                   duration_ns=300_000),
    ))

    @staticmethod
    def _namespace_crc(controller):
        crc = 0
        for nsid in sorted(controller.namespaces):
            extents = controller.namespaces[nsid]._extents
            for index in sorted(extents):
                crc = zlib.crc32(index.to_bytes(8, "little"), crc)
                crc = zlib.crc32(bytes(extents[index]), crc)
        return crc

    def _digest(self, scn, controllers, total_ios, iodepth,
                injector=None, **job_kwargs):
        if injector is not None:
            injector.start()
        devices = scn.clients
        procs = [scn.sim.process(fio_generator(dev, FioJob(
            name=f"p{i}", rw="randrw", iodepth=iodepth,
            total_ios=total_ios, seed_stream=f"fio{i}", **job_kwargs)))
            for i, dev in enumerate(devices)]
        scn.sim.run(until=scn.sim.all_of(procs))
        h = hashlib.sha256()
        for dev in devices:
            assert dev.completed == total_ios
            h.update(repr((dev.completed, dev.errors, dev.bytes_moved,
                           int(dev.latencies.values().sum()))).encode())
        for ctrl in controllers:
            h.update(repr((ctrl.name,
                           self._namespace_crc(ctrl))).encode())
        return h.hexdigest()

    def test_multihost_4_at_1000_ios_per_client(self):
        scn = multihost(4, seed=404)
        assert self._digest(scn, [scn.testbed.nvme], total_ios=1000,
                            iodepth=8, region_lbas=1 << 20) == (
            "ff62bb32b909a6af9db8986cd195be509cba7fae6c80259c67757c2706476aca")

    def test_chaos_cluster_default_plan(self):
        scn = chaos_cluster(seed=321)
        assert self._digest(scn, [scn.testbed.nvme], total_ios=150,
                            iodepth=4, injector=scn.injector) == (
            "0e8f1ed1453f63d0bf38f2d4812b1c91cf68c42014ee354b47619ff22bf0ca9c")

    def test_chaos_cluster_with_faults(self):
        scn = chaos_cluster(n_clients=3, plan=self.FAULTS, seed=321)
        assert self._digest(scn, [scn.testbed.nvme], total_ios=150,
                            iodepth=4, injector=scn.injector) == (
            "f7d2bc3376dc95d71c46bf43e9f4e8964109235e5b13ebea24274a59a71f820b")

    def test_cluster_4_devices_width_2_replicas_2(self):
        scn = cluster(n_devices=4, width=2, replicas=2, seed=99)
        assert self._digest(scn, scn.controllers, total_ios=120,
                            iodepth=4) == (
            "68e138e76fe22ff35dfb70965ec69ceb0f18a5ad101b90b9f9a3bcf133506a8e")
