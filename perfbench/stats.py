"""The benchmark's own arithmetic: percentiles, failure share, digest."""

from __future__ import annotations

import hashlib
import math
import typing as t

import numpy as np

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_values: np.ndarray, pct: float) -> int:
    """The ``pct`` percentile by nearest rank: a sample, never a blend."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(round(pct / 100.0 * n, 9)))
    return int(sorted_values[min(rank, n) - 1])


def tail_percentile(values: t.Sequence[int] | np.ndarray,
                    want: float = 99.0,
                    min_beyond: int = MIN_BEYOND) -> tuple[float, int]:
    """(percentile used, value) for a tail with enough samples past it.

    ``want`` is used when at least ``min_beyond`` samples rank above it;
    otherwise the highest percentile, in steps of 0.1, that leaves that
    many.  Raises when there are not even ``min_beyond + 1`` samples.
    """
    ordered = np.sort(np.asarray(values))
    n = len(ordered)
    if n <= min_beyond:
        raise ValueError(f"{n} samples leave none with {min_beyond} "
                         f"beyond it")
    pct = want
    if n - math.ceil(round(want / 100.0 * n, 9)) < min_beyond:
        pct = math.floor(1000.0 * (n - min_beyond) / n) / 10.0
    return pct, nearest_rank(ordered, pct)


def median(values: t.Sequence[int] | np.ndarray) -> int:
    return nearest_rank(np.sort(np.asarray(values)), 50.0)


def failed_frac(attempted: int, ok: int) -> float:
    """Share of attempted I/Os that did not complete successfully.

    An I/O that failed, was refused or never came back all count as
    failed: everything attempted minus what completed with status 0.
    """
    if attempted < 1:
        raise ValueError("no I/O attempted")
    if not 0 <= ok <= attempted:
        raise ValueError(f"{ok} successes out of {attempted} attempted")
    return (attempted - ok) / attempted


def digest(latencies: t.Mapping[str, t.Sequence[int] | np.ndarray],
           statuses: t.Mapping[str, int]) -> str:
    """SHA-256 over the sorted latencies of each named section and the
    completion-status counts.  Independent of completion order and of
    the order the mapping lists its sections."""
    h = hashlib.sha256()
    for name in sorted(latencies):
        values = np.sort(np.asarray(latencies[name], dtype=np.int64))
        h.update(f"{name}:{len(values)}:".encode())
        h.update(values.astype("<i8").tobytes())
    for name in sorted(statuses):
        h.update(f"{name}={int(statuses[name])};".encode())
    return h.hexdigest()
