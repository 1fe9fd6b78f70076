"""Host time scaled to one reference machine speed.

Shared sandboxes change speed by a quarter or more for seconds at a
time, and the same slowdown hits every interpreter-bound loop.  So the
benchmark times a fixed pure-Python loop (:func:`spin`) right before
each set-up and, during a measured phase, every :data:`SLICE_IOS`
completions; each stretch of host time is scaled by
``REFERENCE_SPIN_NS / (spin time measured around it)``.  The scaled
figure is the host time the same work would take on a machine that
runs :func:`spin` in ``REFERENCE_SPIN_NS``; the raw figure is printed
beside it.  Spinning adds no simulator event, so simulated results are
unchanged, and spin time is excluded from the measured phase.
"""

from __future__ import annotations

from time import perf_counter_ns

SPIN_ITERATIONS = 40_000
#: :func:`spin` on the reference machine: about the fast phase of a
#: 2-vCPU x86-64 sandbox VM under CPython 3.11.
REFERENCE_SPIN_NS = 4_000_000
#: completions between two spins during a measured phase
SLICE_IOS = 256


def spin() -> int:
    """Run the fixed calibration loop; returns its host time in ns."""
    began = perf_counter_ns()
    acc = 0
    table: dict[int, int] = {}
    for i in range(SPIN_ITERATIONS):
        acc += i * i % 7
        table[i & 1023] = acc
    return perf_counter_ns() - began


def scaled(host_ns: float, spin_ns: float) -> float:
    """``host_ns`` at reference speed, given a spin time next to it."""
    return host_ns * REFERENCE_SPIN_NS / spin_ns


class HostMeter:
    """Spins at the start, every ``SLICE_IOS`` completions and at the
    end of a measured phase; :meth:`totals` sums the slices between."""

    def __init__(self) -> None:
        self.count = 0
        #: (host ns before the spin, host ns after it, completions so far)
        self.marks: list[tuple[int, int, int]] = []

    def mark(self) -> None:
        began = perf_counter_ns()
        spin()
        self.marks.append((began, perf_counter_ns(), self.count))

    def tick(self) -> None:
        self.count += 1
        if self.count % SLICE_IOS == 0:
            self.mark()

    def totals(self) -> tuple[int, float]:
        """(raw ns, reference-speed ns) of the phase, spins excluded."""
        return slice_totals(self.marks)


def slice_totals(marks: list[tuple[int, int, int]]) -> tuple[int, float]:
    """Sum the stretches between consecutive spins, raw and scaled by the
    mean of the two spins that bound each stretch."""
    raw, ref = 0, 0.0
    for (b0, e0, _n0), (b1, e1, _n1) in zip(marks, marks[1:]):
        stretch = b1 - e0
        raw += stretch
        ref += scaled(stretch, ((e0 - b0) + (e1 - b1)) / 2)
    return raw, ref
