"""Discrete-event simulation kernel (integer-nanosecond clock).

Public surface::

    from repro.sim import Simulator, Resource, Pipe, Store, Signal
"""

from .core import Simulator
from .events import AllOf, AnyOf, Event, Timeout
from .process import Interrupt, Process
from .resources import (DeadlineQueue, Pipe, Request, Resource, Signal,
                        Store)
from .rng import RngRegistry
from .shard import (ShardBoundary, ShardError, ShardRun, merge_disjoint,
                    merge_metric_snapshots, run_sharded, value_fingerprint)
from .stats import (BoxplotStats, Counter, LatencyRecorder, iops,
                    throughput_bytes_per_s)
from .trace import NULL_TRACER, NullTracer, Tracer, TraceRecord

__all__ = [
    "Simulator", "Event", "Timeout", "AnyOf", "AllOf",
    "Process", "Interrupt",
    "Resource", "Request", "Pipe", "DeadlineQueue", "Store", "Signal",
    "RngRegistry",
    "ShardBoundary", "ShardError", "ShardRun", "run_sharded",
    "merge_disjoint", "merge_metric_snapshots", "value_fingerprint",
    "LatencyRecorder", "BoxplotStats", "Counter", "iops",
    "throughput_bytes_per_s",
    "Tracer", "TraceRecord", "NullTracer", "NULL_TRACER",
]
