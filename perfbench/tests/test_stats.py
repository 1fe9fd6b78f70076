"""The benchmark's own arithmetic: percentiles, failure share, digest."""

import json
import math
import random

import numpy as np
import pytest

from perfbench import hosttime, run, stats


def beyond(n: int, pct: float) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile."""
    return n - math.ceil(round(pct / 100.0 * n, 9))


class TestTailPercentile:
    def test_p99_kept_with_exactly_ten_beyond(self):
        values = np.arange(1, 1001)
        pct, value = stats.tail_percentile(values)
        assert pct == 99.0
        assert value == 990
        assert int((values > value).sum()) == 10

    def test_falls_back_below_a_thousand_samples(self):
        values = np.arange(1, 501)
        pct, value = stats.tail_percentile(values)
        assert pct == 98.0
        assert value == 490
        assert int((values > value).sum()) == 10

    @pytest.mark.parametrize("n", list(range(11, 1200, 7)) + [2003, 4000])
    def test_highest_percentile_with_ten_beyond(self, n):
        pct, value = stats.tail_percentile(np.arange(n))
        assert beyond(n, pct) >= stats.MIN_BEYOND
        if pct < 99.0:
            assert beyond(n, round(pct + 0.1, 1)) < stats.MIN_BEYOND
        assert value == stats.nearest_rank(np.arange(n), pct)

    def test_order_of_samples_is_irrelevant(self):
        values = list(range(2000))
        random.Random(3).shuffle(values)
        assert stats.tail_percentile(values) == (99.0, 1979)

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            stats.tail_percentile(np.arange(10))

    def test_median_is_a_sample(self):
        assert stats.median([4, 1, 3, 2]) == 2
        assert stats.median([5]) == 5


class TestFailedFrac:
    def test_counts_everything_not_ok(self):
        # 7 succeeded; failures, refusals and lost I/Os all count.
        assert stats.failed_frac(10, 7) == pytest.approx(0.3)

    def test_zero_when_all_succeed(self):
        assert stats.failed_frac(4000, 4000) == 0.0

    @pytest.mark.parametrize("attempted,ok", [(0, 0), (5, 6), (5, -1)])
    def test_rejects_impossible_accounting(self, attempted, ok):
        with pytest.raises(ValueError):
            stats.failed_frac(attempted, ok)


class TestDigest:
    LAT = {"read": [14545, 14000, 15001], "write": [17038, 16999]}
    STATUS = {"attempted": 5, "completed": 5, "ok": 5}

    def test_independent_of_completion_and_section_order(self):
        shuffled = {"write": [16999, 17038],
                    "read": np.array([15001, 14545, 14000])}
        assert stats.digest(self.LAT, self.STATUS) \
            == stats.digest(shuffled, dict(reversed(self.STATUS.items())))

    def test_any_latency_change_shows(self):
        changed = {"read": [14545, 14000, 15002], "write": [17038, 16999]}
        assert stats.digest(changed, self.STATUS) \
            != stats.digest(self.LAT, self.STATUS)

    def test_a_latency_moving_section_shows(self):
        moved = {"read": [14545, 14000], "write": [17038, 16999, 15001]}
        assert stats.digest(moved, self.STATUS) \
            != stats.digest(self.LAT, self.STATUS)

    def test_statuses_count(self):
        failed = dict(self.STATUS, ok=4)
        assert stats.digest(self.LAT, failed) \
            != stats.digest(self.LAT, self.STATUS)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(["qd1-remote", "shared-qp-scaleout",
                   "qos-noisy-neighbor", "cluster-failover"])


def test_host_slices_exclude_spins_and_scale_by_bounding_spins():
    ref = hosttime.REFERENCE_SPIN_NS
    marks = [(0, ref, 0),                         # spin at reference speed
             (ref + 6_000_000, 3 * ref + 6_000_000, 256),  # twice as slow
             (3 * ref + 8_000_000, 4 * ref + 8_000_000, 300)]
    raw, scaled = hosttime.slice_totals(marks)
    assert raw == 6_000_000 + 2_000_000
    # each stretch runs at the mean speed of the two spins around it
    assert scaled == pytest.approx(6_000_000 / 1.5 + 2_000_000 / 1.5)
