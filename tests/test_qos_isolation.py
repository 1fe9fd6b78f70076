"""Noisy-neighbour isolation regression (docs/qos.md).

One aggressor floods its window of a single shared QP while three
bystanders offer a modest open-loop rate.  The claims under test:

* ``wfq`` + admission throttling keep every bystander 100 %
  SLO-compliant and fire burn-rate alerts for the aggressor *only*,
  with the throttle clamping the aggressor alone;
* ``fifo`` demonstrably fails the same test — every bystander breaches
  the SLO and alerts — so the isolation claim is non-vacuous;
* the bystanders' tail latency quantifies it: within 1.5x their solo
  (undisturbed) p99 under wfq+throttle, beyond 5x under fifo;
* the whole story replays bit-identically under ShareSan.

Runs are module-scoped fixtures: four scenario runs shared by all the
assertions below.
"""

import hashlib

import numpy as np
import pytest

from repro.qos import AdmissionThrottle, run_qos
from repro.scenarios import noisy_neighbor
from repro.telemetry.slo import SloSpec
from repro.workloads import OpenLoopJob, open_loop_generator

#: shorter than the ``repro qos`` default — the gates already hold here
#: and tier-1 time matters
HORIZON_NS = 4_000_000
SEED = 7


@pytest.fixture(scope="module")
def solo():
    return run_qos("off", aggressor_active=False, seed=SEED,
                   horizon_ns=HORIZON_NS)


@pytest.fixture(scope="module")
def fifo():
    return run_qos("fifo", seed=SEED, horizon_ns=HORIZON_NS)


@pytest.fixture(scope="module")
def wfq():
    return run_qos("wfq", seed=SEED, horizon_ns=HORIZON_NS)


@pytest.fixture(scope="module")
def wfq_throttle():
    return run_qos("wfq", throttle=True, seed=SEED,
                   horizon_ns=HORIZON_NS)


class TestWfqThrottleIsolates:
    def test_bystanders_fully_compliant(self, wfq_throttle):
        for tenant in wfq_throttle.bystanders:
            info = wfq_throttle.report["tenants"][tenant]
            assert info["met"], f"{tenant} missed the SLO"
            assert info["compliance"] == 1.0, (
                f"{tenant} not 100% compliant: {info['compliance']}")

    def test_only_aggressor_alerts(self, wfq, wfq_throttle):
        for run in (wfq, wfq_throttle):
            assert run.tenant_alerts(run.aggressor), \
                "aggressor fired no burn-rate alert"
            for tenant in run.bystanders:
                assert not run.tenant_alerts(tenant), \
                    f"bystander {tenant} alerted under {run.policy}"

    def test_throttle_clamps_only_the_aggressor(self, wfq_throttle):
        report = wfq_throttle.throttle_report
        assert report["enabled"]
        assert report["throttles_applied"] >= 1
        assert report["clamped"] == [wfq_throttle.aggressor]

    def test_aggressor_throughput_actually_cut(self, wfq,
                                               wfq_throttle):
        """The clamp is real: the throttled aggressor lands far fewer
        I/Os per second than the unthrottled wfq run."""
        free = wfq.results[0]
        clamped = wfq_throttle.results[0]
        assert free is not None and clamped is not None
        assert clamped.achieved_iops < 0.7 * free.achieved_iops


class TestFifoFailsToIsolate:
    """The inverse assertions — without them the wfq test would pass
    vacuously on a workload too gentle to hurt anyone."""

    def test_every_bystander_breaches_and_alerts(self, fifo):
        for tenant in fifo.bystanders:
            info = fifo.report["tenants"][tenant]
            assert not info["met"], (
                f"{tenant} met the SLO under fifo — the aggressor "
                f"isn't aggressive enough to make the test meaningful")
            assert fifo.tenant_alerts(tenant), \
                f"bystander {tenant} fired no alert under fifo"


class TestIsolationRatios:
    def test_tail_latency_gates(self, solo, fifo, wfq_throttle):
        solo_p99 = solo.bystander_p99_ns()
        assert solo_p99 > 0
        assert wfq_throttle.bystander_p99_ns() <= 1.5 * solo_p99, (
            f"wfq+throttle bystander p99 "
            f"{wfq_throttle.bystander_p99_ns():.0f} ns exceeds 1.5x "
            f"solo ({solo_p99:.0f} ns)")
        assert fifo.bystander_p99_ns() > 5 * solo_p99, (
            f"fifo bystander p99 {fifo.bystander_p99_ns():.0f} ns is "
            f"within 5x solo ({solo_p99:.0f} ns) — non-vacuity lost")

    def test_all_traffic_served(self, fifo, wfq, wfq_throttle):
        """Isolation is not starvation: every issued I/O completes,
        error-free, under every policy."""
        for run in (fifo, wfq, wfq_throttle):
            for result in run.results:
                assert result is not None
                assert result.completed == result.issued
                assert result.errors == 0


class TestShareSanReplay:
    def test_sanitized_run_bit_identical_and_clean(self):
        def digest():
            run = run_qos("wfq", throttle=True, seed=SEED,
                          horizon_ns=2_000_000, sanitizer=True)
            return (run.prometheus_text(), run.timeseries_jsonl(),
                    run.slo_report_json())

        first = digest()
        assert first == digest()

    def test_sanitizer_reports_no_findings(self):
        from repro.scenarios import noisy_neighbor
        from repro.workloads import OpenLoopJob, run_open_loop_many

        sc = noisy_neighbor(policy="wfq", seed=SEED, sanitizer=True)
        jobs = [OpenLoopJob(name=f"t{i}", rate_iops=30_000.0,
                            total_arrivals=40)
                for i in range(len(sc.clients))]
        run_open_loop_many(list(zip(sc.clients, jobs)))
        assert sc.sanitizer is not None
        assert sc.sanitizer.findings == []


def _clamp_and_lift_run():
    """wfq + throttle (window 4) against a bursty aggressor, under an SLO
    with short burn windows: the clamp goes on during a burst and is
    lifted during a later one, with dozens of submitters parked on the
    clamp — so the lift admits many of them at one instant."""
    sc = noisy_neighbor(n_bystanders=2, policy="wfq", throttle_window=4,
                        seed=3)
    sim, tele = sc.sim, sc.telemetry
    tele.enable_histograms()
    sampler = tele.enable_sampler(interval_ns=100_000, start=False)
    slo = tele.enable_slo(SloSpec(name="latency", objective_ns=50_000,
                                  target=0.9, fast_window_ns=100_000,
                                  slow_window_ns=200_000,
                                  burn_threshold=2.0))
    throttle = AdmissionThrottle(sim, sc.testbed.config.qos, slo)
    throttle.attach(sc.clients)
    aggressor = sc.clients[0]
    parked_at_lift = []
    set_window = aggressor.set_qos_window

    def spy(window):
        if window is None:
            parked_at_lift.append(len(aggressor._sq_space._waiters))
        set_window(window)

    aggressor.set_qos_window = spy
    sampler.start()
    throttle.start()
    horizon = 3_000_000
    jobs = [OpenLoopJob(name="aggressor", rw="randread",
                        rate_iops=400_000.0, arrival="bursty",
                        burst_duty=0.5, burst_period_ns=1_100_000,
                        total_arrivals=None, runtime_ns=horizon,
                        inflight_cap=aggressor.queue_depth,
                        seed_stream="qos")]
    jobs += [OpenLoopJob(name=f"bystander{i}", rw="randrw", rwmixread=70,
                         rate_iops=50_000.0, arrival="poisson",
                         total_arrivals=None, runtime_ns=horizon,
                         inflight_cap=16, seed_stream="qos")
             for i in range(1, len(sc.clients))]
    procs = [sim.process(open_loop_generator(client, job))
             for client, job in zip(sc.clients, jobs)]
    sim.run(until=sim.all_of(procs))
    sampler.stop()
    throttle.stop()
    return sc, throttle, [p.value for p in procs], parked_at_lift


class TestThrottleLiftPinned:
    """Pins the admission throttle's park/admit schedule, including the
    lift that releases many parked submitters at one instant: any change
    to who gets admitted when moves a latency or the park count."""

    #: SHA-256 over every tenant's latencies and ``throttled_ios``
    DIGEST = ("21aefa22cfaa4e2b1451c03f510af999"
              "68e30f00f2e7362f00a6f69dc1bf8065")

    def test_clamp_lift_outputs_pinned(self):
        sc, throttle, results, parked_at_lift = _clamp_and_lift_run()
        report = throttle.report()
        assert report["throttles_applied"] >= 1
        assert report["throttles_released"] >= 1
        assert max(parked_at_lift) >= 2
        digest = hashlib.sha256()
        for client, result in zip(sc.clients, results):
            assert result.completed == result.issued
            digest.update(client.tenant.encode())
            digest.update(np.asarray(result.latencies.values(),
                                     dtype=np.int64).tobytes())
            digest.update(client.throttled_ios.to_bytes(8, "little"))
        assert digest.hexdigest() == self.DIGEST
