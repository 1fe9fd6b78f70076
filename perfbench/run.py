"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload qd1-remote --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` (the default) measures the end-to-end metrics with no
instrumentation: set-up and measured phase are repeated until
``--seconds`` of host time is used (at least three times), host-time
metrics are medians over the repeats at a reference machine speed
(:mod:`perfbench.hosttime`), and every repeat must reproduce the first
one's modeled digest.  ``--trace 1`` runs the workload once
untraced and once with the per-layer ledger (:mod:`perfbench.ledger`)
installed, checks that both simulate the same thing, and prints the
per-layer metrics; spans are written to ``.perfbench_out/``.

Every metric is printed as ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check prints ``"correct": false``
with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The seed workloads were sized on, and one kept out of all tuning for
#: re-checking a claimed gain.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
MIN_REPEATS = 3
MIN_SETUPS = 9
#: Cheap set-ups are repeated until they add up to about this much.
SETUP_BUDGET_S = 1.5

#: (name, unit) of every end-to-end metric, printed by ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"), ("host_us_per_io", "us"), ("peak_rss_mb", "MB"),
    ("read_p50_ns", "ns"), ("read_p99_ns", "ns"),
    ("write_p50_ns", "ns"), ("write_p99_ns", "ns"),
    ("iops", "1/s"), ("bystander_p99_ns", "ns"),
    ("read_delta_vs_local_ns", "ns"), ("write_delta_vs_local_ns", "ns"),
)

STAGE_NAMES = ("submit", "sq-ntb-write", "doorbell", "fetch", "media",
               "cq-ntb-write", "poll")

#: (name, unit) of every per-layer metric, printed by ``--trace 1``.
PER_LAYER = (
    tuple((f"{layer}.self_us_per_io", "us") for layer in (
        "sim", "pcie", "memory", "nvme", "driver", "cluster", "qos",
        "telemetry", "sanitizer", "faults", "workloads", "other"))
    + (("trace.overhead_ratio", "x"),
       ("sim.events_per_io", "1/io"), ("sim.process_spawns_per_io", "1/io"),
       ("sim.sleeps_per_io", "1/io"),
       ("pcie.tlps_per_io", "1/io"), ("pcie.bytes_per_io", "B/io"),
       ("pcie.posted_writes_per_io", "1/io"),
       ("pcie.nonposted_reads_per_io", "1/io"),
       ("pcie.ntb_translations_per_io", "1/io"),
       ("memory.accesses_per_io", "1/io"))
    + tuple((f"stage.{stage}_ns_{q}", "ns") for stage in STAGE_NAMES
            for q in ("p50", "p99"))
    + (("nvme.sqe_fetches_per_io", "1/io"),
       ("nvme.fetch_retries_per_io", "1/io"),
       ("nvme.media_accesses_per_io", "1/io"),
       ("nvme.arb_wait_ns_p99", "ns"),
       ("driver.cqes_forwarded_per_io", "1/io"),
       ("driver.manager_rpcs", "count"),
       ("driver.tenant_iops_min_over_max", "ratio"),
       ("driver.retries_per_io", "1/io"), ("driver.timeouts_per_io", "1/io"),
       ("qos.grants_per_io", "1/io"), ("qos.select_calls_per_grant", "ratio"),
       ("qos.throttled_total", "count"),
       ("telemetry.hist_records_per_io", "1/io"),
       ("telemetry.sampler_ticks", "count"),
       ("sanitizer.hook_calls_per_io", "1/io"),
       ("sanitizer.findings", "count"),
       ("cluster.member_ios_per_io", "1/io"), ("cluster.failovers", "count"),
       ("cluster.degraded_writes", "count"),
       ("cluster.path_errors", "count"),
       ("faults.injected_total", "count"),
       ("workloads.max_backlog_ns", "ns"),
       ("workloads.capped_arrivals_frac", "ratio"))
)

#: Workloads whose every I/O must succeed.
MUST_NOT_FAIL = ("qd1-remote", "shared-qp-scaleout", "cluster-failover")


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Report:
    """Collects metrics and check verdicts; prints them at the end."""

    def __init__(self, units: dict[str, str]) -> None:
        self.units = units
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.checks: list[tuple[str, bool, str]] = []

    def put(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = value
        if note:
            self.notes[name] = note

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _n, ok, _d in self.checks)

    def emit(self, attempted: int, failed: int) -> int:
        for name, ok, detail in self.checks:
            print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
        correct = self.correct
        metrics = {}
        if correct:
            missing = [n for n in self.units if n not in self.metrics]
            if missing:
                raise RuntimeError(f"metrics not produced: {missing}")
            for name, unit in self.units.items():
                value = self.metrics[name]
                note = self.notes.get(name, "")
                print(f"  {name:<34} {value:>16.6g} {unit:<5} {note}")
                metrics[name] = {"value": value, "unit": unit}
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1


def tail_note(pct: float, n: int) -> str:
    return f"(p{pct:g} of {n})" if pct != 99.0 else f"(of {n})"


def modeled(report, stats, outcome) -> str:
    """Simulated latency metrics of one outcome; returns its digest."""
    for op, lat in (("read", outcome.reads), ("write", outcome.writes)):
        report.put(f"{op}_p50_ns", stats.median(lat), f"(of {len(lat)})")
        pct, value = stats.tail_percentile(lat)
        report.put(f"{op}_p99_ns", value, tail_note(pct, len(lat)))
    worst = max((stats.tail_percentile(outcome.tenants[t]) + (t,)
                 for t in outcome.bystanders), key=lambda x: x[1])
    report.put("bystander_p99_ns", worst[1],
               f"({worst[2]} p{worst[0]:g} of "
               f"{len(outcome.tenants[worst[2]])})")
    report.put("iops", outcome.ok / outcome.sim_ns * 1e9)
    return outcome_digest(stats, outcome)


def outcome_digest(stats, outcome) -> str:
    return stats.digest(
        {f"tenant:{k}": v for k, v in outcome.tenants.items()}
        | {"read": outcome.reads, "write": outcome.writes},
        {"attempted": outcome.attempted, "completed": outcome.completed,
         "ok": outcome.ok})


def timed_pass(workload, seed: int, telemetry: bool = False):
    """(set-up s, measured s, outcome, live state) of one fresh run,
    raw host time (the traced run compares passes of one process)."""
    gc.collect()
    t0 = time.perf_counter()
    state = workload.build(seed, telemetry=telemetry)
    t1 = time.perf_counter()
    gc.collect()
    t2 = time.perf_counter()
    outcome = workload.run(state)
    t3 = time.perf_counter()
    return t1 - t0, t3 - t2, outcome, state


def common_checks(report, name: str, outcome, stats) -> None:
    """Checks both modes run on the outcome; prints the failure share."""
    for check in outcome.checks:
        report.check(*check)
    frac = stats.failed_frac(outcome.attempted, outcome.ok)
    if name in MUST_NOT_FAIL:
        report.check("no-failed-io", frac == 0.0,
                     f"failed_frac {frac:g} of {outcome.attempted}")
    print(f"  failed_frac {frac:g} ({outcome.attempted - outcome.ok} of "
          f"{outcome.attempted} attempted)")


def timed_setup(workload, seed: int, hosttime) -> tuple[float, float]:
    """(raw s, reference-speed s) of one set-up, after a spin."""
    gc.collect()
    spin_ns = hosttime.spin()
    t0 = time.perf_counter()
    state = workload.build(seed)
    took = time.perf_counter() - t0
    del state
    return took, hosttime.scaled(took, spin_ns)


def extra_setups(workload, seed: int, budget_s: float, hosttime):
    """Set-up-only samples for about ``budget_s`` (at least one)."""
    samples = [timed_setup(workload, seed, hosttime)]
    while sum(raw for raw, _ref in samples) < budget_s:
        samples.append(timed_setup(workload, seed, hosttime))
    return samples


def run_untraced(args, workload, stats, workloads, hosttime) -> int:
    from repro.analysis import PAPER_CLAIMS

    report = Report(dict(END_TO_END))
    name = workload.name
    reference = workloads.fig10_reference(args.seed)

    # Repeat set-up + measured phase until the time is used; between
    # repeats, extra set-ups spread the set-up samples over the run.
    setups, host_raw, host_ref, digests = [], [], [], []
    outcome = None
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        setups.append(timed_setup(workload, args.seed, hosttime))
        state = workload.build(args.seed)
        gc.collect()
        meter = hosttime.HostMeter()
        out = workload.run(state, meter)
        raw_ns, ref_ns = meter.totals()
        host_raw.append(raw_ns / out.ok / 1e3)
        host_ref.append(ref_ns / out.ok / 1e3)
        digests.append(outcome_digest(stats, out))
        if outcome is None:
            outcome = out
            rounds = max(MIN_REPEATS, int(args.seconds / (raw_ns / 1e9)))
            extra = SETUP_BUDGET_S / rounds
        del out, state
        setups += extra_setups(workload, args.seed, extra, hosttime)
        spent = time.perf_counter() - began
        if (len(host_ref) >= MIN_REPEATS
                and spent + time.perf_counter() - round_began
                > args.seconds):
            break
    while len(setups) < MIN_SETUPS:
        setups += extra_setups(workload, args.seed, 0.0, hosttime)

    report.check("repeats-identical", len(set(digests)) == 1,
                 f"{len(digests)} repeats, {len(set(digests))} digests")
    common_checks(report, name, outcome, stats)
    digest = modeled(report, stats, outcome)
    raw_setup = statistics.median(raw for raw, _ref in setups)
    report.put("setup_s", statistics.median(ref for _raw, ref in setups),
               f"(median of {len(setups)} set-ups; raw {raw_setup:.6g} s)")
    report.put("host_us_per_io", statistics.median(host_ref),
               f"(median of {len(host_ref)} repeats of {outcome.ok} I/Os; "
               f"raw {statistics.median(host_raw):.6g} us)")
    report.put("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    for op in ("read", "write"):
        delta = (stats.median(reference[f"remote-{op}"])
                 - stats.median(reference[f"local-{op}"]))
        claim = PAPER_CLAIMS[f"ours-{op}-delta"]
        report.put(f"{op}_delta_vs_local_ns", delta,
                   f"(paper ~{claim.paper_value_us * 1000:.0f} ns)")
        report.check(f"paper-{op}-delta", claim.check(delta / 1000.0),
                     f"{delta} ns, accept {claim.lo_us * 1000:.0f}.."
                     f"{claim.hi_us * 1000:.0f} ns")
    print(f"  digest {digest}")
    return report.emit(outcome.attempted, outcome.attempted - outcome.ok)


def run_traced(args, workload, stats, workloads, hosttime,
               ledger_mod) -> int:
    import numpy as np

    report = Report(dict(PER_LAYER))
    name = workload.name
    _setup, wall_u, plain, state = timed_pass(workload, args.seed)
    stages = (workloads.stage_durations(state.telemetry)
              if workload.telemetry_on else None)
    del state

    ledger = ledger_mod.Ledger()
    ledger_mod.install(ledger)
    try:
        state = workload.build(args.seed)
        gc.collect()
        spin_ns = hosttime.spin()
        ledger.reset()
        t0 = time.perf_counter()
        traced = workload.run(state)
        root_ns = ledger.close_root()
        wall_t = time.perf_counter() - t0
        spin_ns = (spin_ns + hosttime.spin()) / 2
    finally:
        ledger.uninstall()
    del state

    digest = outcome_digest(stats, plain)
    report.check("trace-leaves-model-unchanged",
                 outcome_digest(stats, traced) == digest
                 and traced.counters == plain.counters,
                 "traced digest and counters vs untraced")
    if stages is None:
        _s, _r, spanned, state = timed_pass(workload, args.seed,
                                            telemetry=True)
        report.check("telemetry-leaves-model-unchanged",
                     outcome_digest(stats, spanned) == digest,
                     "span-recording digest vs untraced")
        stages = workloads.stage_durations(state.telemetry)
        del state
    common_checks(report, name, plain, stats)

    spans = ledger.arrays()
    selfs = ledger_mod.self_times(spans["start"], spans["end"],
                                  spans["parent"])
    layers, entries = ledger_mod.layer_totals(ledger.sites, spans["site"],
                                              selfs)
    total = sum(layers.values())
    report.check("self-times-add-up",
                 abs(total - wall_t * 1e9) <= 0.01 * wall_t * 1e9
                 and total == root_ns,
                 f"layers {total / 1e9:.4f} s, root span "
                 f"{root_ns / 1e9:.4f} s, traced wall {wall_t:.4f} s")
    ios = plain.ok
    for layer, ns in layers.items():
        report.put(f"{layer}.self_us_per_io",
                   hosttime.scaled(ns, spin_ns) / ios / 1e3)
    report.put("trace.overhead_ratio", wall_t / wall_u,
               f"(traced {wall_t:.3f} s / untraced {wall_u:.3f} s)")

    c = plain.counters
    per_io = {
        "sim.events_per_io": c["sim.events"],
        "sim.process_spawns_per_io": ledger.spawns,
        "sim.sleeps_per_io": entries["Simulator.sleep"],
        "pcie.tlps_per_io": c["pcie.posted_writes"]
        + c["pcie.nonposted_reads"],
        "pcie.bytes_per_io": c["pcie.bytes"],
        "pcie.posted_writes_per_io": c["pcie.posted_writes"],
        "pcie.nonposted_reads_per_io": c["pcie.nonposted_reads"],
        "pcie.ntb_translations_per_io": c["pcie.ntb_translations"],
        "memory.accesses_per_io": entries["HostMemory.read"]
        + entries["HostMemory.write"],
        "nvme.sqe_fetches_per_io": c["nvme.sqe_fetches"],
        "nvme.fetch_retries_per_io": c["nvme.fetch_retries"],
        "nvme.media_accesses_per_io": c["nvme.media_accesses"],
        "driver.cqes_forwarded_per_io": c["driver.cqes_forwarded"],
        "driver.retries_per_io": c["driver.retries"],
        "driver.timeouts_per_io": c["driver.timeouts"],
        "qos.grants_per_io": c["qos.grants"],
        "telemetry.hist_records_per_io": c["telemetry.hist_records"],
        "sanitizer.hook_calls_per_io": entries["ShareSan.hook"],
        "cluster.member_ios_per_io": (c["driver.subclient_ios"]
                                      if name == "cluster-failover" else 0),
    }
    for metric, count in per_io.items():
        report.put(metric, count / ios)
    for metric in ("driver.manager_rpcs", "qos.throttled_total",
                   "telemetry.sampler_ticks", "sanitizer.findings",
                   "cluster.failovers", "cluster.degraded_writes",
                   "cluster.path_errors", "faults.injected_total"):
        report.put(metric, c[metric])
    grants = c["qos.grants"]
    report.put("qos.select_calls_per_grant",
               entries["Arbiter.select"] / grants if grants else 0.0)
    rates = [plain.tenant_iops[t] for t in plain.bystanders]
    report.put("driver.tenant_iops_min_over_max", min(rates) / max(rates))
    report.put("workloads.max_backlog_ns",
               c.get("workloads.max_backlog_ns", 0))
    report.put("workloads.capped_arrivals_frac",
               c.get("workloads.capped_arrivals", 0) / plain.attempted)
    for stage in STAGE_NAMES:
        values = stages[stage]
        report.put(f"stage.{stage}_ns_p50", stats.median(values))
        pct, value = stats.tail_percentile(values)
        report.put(f"stage.{stage}_ns_p99", value,
                   tail_note(pct, len(values)))

    waits = stages["arb-wait"]
    if len(waits) > stats.MIN_BEYOND:
        pct, value = stats.tail_percentile(waits)
        report.put("nvme.arb_wait_ns_p99", value, tail_note(pct, len(waits)))
    else:
        report.put("nvme.arb_wait_ns_p99", 0, "(no shared-QP fetches)")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}.npz"
    np.savez(path, self_ns=selfs, **spans,
             sites=np.array([f"{l}:{e}" for l, e in ledger.sites]))
    print(f"  {len(selfs)} spans written to {path.relative_to(ROOT)}")
    print(f"  digest {digest}")
    return report.emit(plain.attempted, plain.attempted - plain.ok)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import hosttime, ledger, stats, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        return run_traced(args, workload, stats, workloads, hosttime,
                          ledger)
    return run_untraced(args, workload, stats, workloads, hosttime)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
