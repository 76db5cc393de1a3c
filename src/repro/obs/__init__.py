"""End-to-end observability: metrics, causal traces, flight recorder.

Three cooperating pieces, owned per-simulation by
:class:`~repro.obs.hub.Observability` (``sim.obs``):

* :mod:`repro.obs.metrics` — labeled counters/gauges/log-bucketed
  histograms with namespaced series and JSONL/CSV export;
* :mod:`repro.obs.spans` — trace ids stamped on packets at the IPOP tap
  (and on CTMs at ``connect_to``), propagated through every routing hop,
  linking handshake, NAT traversal and physical delivery, reconstructable
  as a span tree;
* :mod:`repro.obs.recorder` — a bounded per-node ring of recent events
  with optional JSONL spill (size-rotated, optionally gzipped);
* :mod:`repro.obs.prof` — the kernel self-profiler: per-subsystem /
  per-handler wall-time attribution, kernel health, a top-K heavy-node
  sketch, flamegraph-ready collapsed stacks.

``python -m repro.obs.inspect <export-dir>`` renders node health, the
connection census, slowest routes, and per-trace span trees from a run's
export (see :mod:`repro.obs.inspect`); ``python -m repro.obs.top``
attaches a live refreshing dashboard to a running overlay — in-process
or through a live daemon's unix control socket (see
:mod:`repro.obs.top`).
"""

from repro.obs.hub import Observability
from repro.obs.metrics import (
    Counter,
    DeltaReader,
    Gauge,
    Histogram,
    MetricsRegistry,
    SectorRollup,
)
from repro.obs.prof import KernelProfiler, SpaceSavingSketch, categorize
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import Span, SpanCollector, TraceRef, span_tree

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DeltaReader",
    "SectorRollup",
    "SpanCollector",
    "Span",
    "TraceRef",
    "span_tree",
    "FlightRecorder",
    "KernelProfiler",
    "SpaceSavingSketch",
    "categorize",
]
