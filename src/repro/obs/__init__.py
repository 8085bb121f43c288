"""Observability: structured tracing, spans, and metrics for the simulation.

See :mod:`repro.obs.trace` for the tracer (typed events, JSONL export,
summary report), :mod:`repro.obs.spans` for causal span trees /
critical-path analysis / Chrome trace export, :mod:`repro.obs.monitor`
for the online invariant monitors, :mod:`repro.obs.metrics` for the
counter/histogram registry, and :mod:`repro.obs.hist` for the
constant-memory histogram.  Tracing is disabled by default and is
enabled per run with ``ArgusSystem(tracing=True)`` or
``Tracer.install(env)``.  Exported traces are analyzed offline with
``python -m repro.obs`` (see :mod:`repro.obs.__main__`).
"""

from repro.obs.hist import StreamingHistogram
from repro.obs.metrics import Counter, Histogram, Metrics
from repro.obs.monitor import MonitorSuite, MonitorViolation
from repro.obs.spans import (
    CallSpan,
    SpanNode,
    aggregate_critical_path,
    build_spans,
    build_trees,
    critical_path,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import TraceEvent, Tracer, load_jsonl, mint_span

__all__ = [
    "Counter",
    "Histogram",
    "Metrics",
    "StreamingHistogram",
    "MonitorSuite",
    "MonitorViolation",
    "CallSpan",
    "SpanNode",
    "TraceEvent",
    "Tracer",
    "aggregate_critical_path",
    "build_spans",
    "build_trees",
    "critical_path",
    "load_jsonl",
    "mint_span",
    "to_chrome_trace",
    "write_chrome_trace",
]
