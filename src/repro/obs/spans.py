"""Causal spans: fold the raw event stream into per-call span trees.

Every stream call, RPC, and fork carries a span context
``(trace_id, span_id, parent_span_id)`` minted at the caller (see
:func:`repro.obs.trace.mint_span`).  This module reconstructs, from a
captured or loaded trace, what each call *did* with its time:

* :func:`build_spans` — one :class:`CallSpan` per ``(stream, incarnation,
  seq)``, with the full phase timeline of the call;
* :func:`build_trees` — the causal forest: spans (calls and forks) linked
  parent → child via their span ids, one tree per trace;
* :func:`critical_path` / :func:`aggregate_critical_path` — where the
  latency went, per call and across the whole run;
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON (load in ``chrome://tracing`` or Perfetto).

Phase model
-----------
A call's life is a chain of timestamps taken from consecutive events::

    t_buffered    stream.call_buffered    caller queued the call
    t_sent        stream.packet_sent      first packet covering its seq
    t_delivered   stream.call_delivered   receiver accepted it, in order
    t_exec_start  stream.call_executing   handler process spawned
    t_exec_end    stream.call_completed   handler outcome produced
    t_reply_sent  stream.reply_packet_sent  first reply covering its seq
    t_resolved    stream.call_resolved    caller's promise resolved

The six phase durations are the differences of consecutive timestamps
(``buffered``, ``call_on_wire``, ``queued``, ``executing``,
``reply_buffered``, ``reply_on_wire``), so for a complete span they sum
*exactly* to the end-to-end latency ``t_resolved - t_buffered`` — the
invariant ``tests/obs/test_spans.py`` pins on the Figure 3-1 workload.
Calls cut short by a stream break have partial timelines
(``span.complete`` is False) and are excluded from aggregates.

Claim time is joined separately via the call's promise id
(``promise.claim_latency``): it measures the *caller's* wait, which
overlaps the phases above rather than extending them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.trace import (
    EV_CALL_BUFFERED,
    EV_CALL_COMPLETED,
    EV_CALL_DELIVERED,
    EV_CALL_EXECUTING,
    EV_CALL_RESOLVED,
    EV_FORK_SPAWNED,
    EV_GRAPH_EPOCH,
    EV_GRAPH_ROUTINE,
    EV_PACKET_SENT,
    EV_PROMISE_CLAIM_LATENCY,
    EV_REPLY_PACKET_SENT,
    TraceEvent,
)

__all__ = [
    "CallSpan",
    "SpanNode",
    "PHASES",
    "build_spans",
    "build_trees",
    "critical_path",
    "aggregate_critical_path",
    "format_tree",
    "graph_shard_breakdown",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: Phase names in timeline order; durations in this order sum to the
#: end-to-end latency of a complete span.
PHASES = (
    "buffered",
    "call_on_wire",
    "queued",
    "executing",
    "reply_buffered",
    "reply_on_wire",
)

#: The timestamp attributes bounding the phases, in order (len(PHASES)+1).
_TIMELINE = (
    "t_buffered",
    "t_sent",
    "t_delivered",
    "t_exec_start",
    "t_exec_end",
    "t_reply_sent",
    "t_resolved",
)


class CallSpan:
    """One stream call's reconstructed timeline and span identity."""

    __slots__ = (
        "stream",
        "incarnation",
        "seq",
        "port",
        "kind",
        "trace_id",
        "span_id",
        "parent_span_id",
        "promise_id",
        "status",
        "claim_wait",
    ) + _TIMELINE

    def __init__(self, stream: str, incarnation: int, seq: int) -> None:
        self.stream = stream
        self.incarnation = incarnation
        self.seq = seq
        self.port: Optional[str] = None
        self.kind: Optional[str] = None
        self.trace_id: Optional[int] = None
        self.span_id: Optional[int] = None
        self.parent_span_id: Optional[int] = None
        self.promise_id: Optional[int] = None
        self.status: Optional[str] = None
        self.claim_wait: Optional[float] = None
        for name in _TIMELINE:
            setattr(self, name, None)

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True when every timeline timestamp was observed."""
        return all(getattr(self, name) is not None for name in _TIMELINE)

    @property
    def end_to_end(self) -> Optional[float]:
        """Latency from buffering to resolution (None if incomplete)."""
        if self.t_resolved is None or self.t_buffered is None:
            return None
        return self.t_resolved - self.t_buffered

    def phases(self) -> Dict[str, Optional[float]]:
        """Phase durations in timeline order; None where data is missing.

        For a complete span the values sum exactly to :attr:`end_to_end`
        (they are differences of consecutive timestamps).
        """
        durations: Dict[str, Optional[float]] = {}
        for index, phase in enumerate(PHASES):
            start = getattr(self, _TIMELINE[index])
            end = getattr(self, _TIMELINE[index + 1])
            durations[phase] = None if start is None or end is None else end - start
        return durations

    @property
    def name(self) -> str:
        return "%s %s seq=%d" % (self.kind or "call", self.port or "?", self.seq)

    def __repr__(self) -> str:
        return "<CallSpan %s on %s span=%r e2e=%r>" % (
            self.name,
            self.stream,
            self.span_id,
            self.end_to_end,
        )


class SpanNode:
    """One node of the causal forest: a call span or a fork."""

    __slots__ = ("kind", "name", "time", "trace_id", "span_id", "parent_span_id", "call", "children")

    def __init__(
        self,
        kind: str,
        name: str,
        time: float,
        trace_id: Optional[int],
        span_id: Optional[int],
        parent_span_id: Optional[int],
        call: Optional[CallSpan] = None,
    ) -> None:
        self.kind = kind  # "call" | "fork"
        self.name = name
        self.time = time
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.call = call
        self.children: List["SpanNode"] = []

    def __repr__(self) -> str:
        return "<SpanNode %s %r span=%r children=%d>" % (
            self.kind,
            self.name,
            self.span_id,
            len(self.children),
        )


# ----------------------------------------------------------------------
# Folding events into spans
# ----------------------------------------------------------------------
def build_spans(events: List[TraceEvent]) -> List[CallSpan]:
    """Fold *events* into one :class:`CallSpan` per call, in buffer order.

    Works on live ``tracer.events`` and on traces re-read with
    :func:`repro.obs.trace.load_jsonl` alike.  Only the first observation
    of each timestamp is kept, so retransmissions never move a phase
    boundary backwards.
    """
    spans: Dict[Any, CallSpan] = {}
    order: List[CallSpan] = []
    # (stream, incarnation) -> spans still waiting for t_sent / t_reply_sent,
    # so packet-range scans touch only unsent calls, not the whole run.
    awaiting_send: Dict[Any, List[CallSpan]] = {}
    awaiting_reply: Dict[Any, List[CallSpan]] = {}
    by_promise: Dict[int, CallSpan] = {}

    for event in events:
        etype = event.type
        fields = event.fields
        if etype == EV_CALL_BUFFERED:
            key = (fields["stream"], fields["incarnation"], fields["seq"])
            span = spans.get(key)
            if span is None:
                span = CallSpan(*key)
                spans[key] = span
                order.append(span)
            span.port = fields.get("port")
            span.kind = fields.get("kind")
            span.trace_id = fields.get("trace_id")
            span.span_id = fields.get("span_id")
            span.parent_span_id = fields.get("parent_span_id")
            span.promise_id = fields.get("promise_id")
            if span.t_buffered is None:
                span.t_buffered = event.time
            stream_key = (fields["stream"], fields["incarnation"])
            awaiting_send.setdefault(stream_key, []).append(span)
            awaiting_reply.setdefault(stream_key, []).append(span)
            if span.promise_id is not None:
                by_promise[span.promise_id] = span
        elif etype == EV_PACKET_SENT:
            lo, hi = fields.get("seq_lo"), fields.get("seq_hi")
            if lo is None:
                continue
            stream_key = (fields["stream"], fields["incarnation"])
            waiting = awaiting_send.get(stream_key)
            if not waiting:
                continue
            still = []
            for span in waiting:
                if span.t_sent is None and lo <= span.seq <= hi:
                    span.t_sent = event.time
                elif span.t_sent is None:
                    still.append(span)
            awaiting_send[stream_key] = still
        elif etype == EV_CALL_DELIVERED:
            span = spans.get((fields["stream"], fields["incarnation"], fields["seq"]))
            if span is not None and span.t_delivered is None:
                span.t_delivered = event.time
        elif etype == EV_CALL_EXECUTING:
            span = spans.get((fields["stream"], fields["incarnation"], fields["seq"]))
            if span is not None and span.t_exec_start is None:
                span.t_exec_start = event.time
        elif etype == EV_CALL_COMPLETED:
            span = spans.get((fields["stream"], fields["incarnation"], fields["seq"]))
            if span is not None and span.t_exec_end is None:
                span.t_exec_end = event.time
        elif etype == EV_REPLY_PACKET_SENT:
            stream_key = (fields["stream"], fields["incarnation"])
            waiting = awaiting_reply.get(stream_key)
            if not waiting:
                continue
            lo, hi = fields.get("seq_lo"), fields.get("seq_hi")
            completed = fields.get("completed_seq", 0)
            still = []
            for span in waiting:
                covered = (
                    lo is not None and lo <= span.seq <= hi
                ) or span.seq <= completed
                if span.t_reply_sent is None and covered:
                    # Only a reply sent after the call finished executing can
                    # carry its outcome; the completed_seq watermark
                    # guarantees that, the entry range re-checks it for
                    # retransmitted reply entries.
                    if span.t_exec_end is None or event.time >= span.t_exec_end:
                        span.t_reply_sent = event.time
                        continue
                if span.t_reply_sent is None:
                    still.append(span)
            awaiting_reply[stream_key] = still
        elif etype == EV_CALL_RESOLVED:
            span = spans.get((fields["stream"], fields["incarnation"], fields["seq"]))
            if span is not None and span.t_resolved is None:
                span.t_resolved = event.time
                span.status = fields.get("status")
        elif etype == EV_PROMISE_CLAIM_LATENCY:
            span = by_promise.get(fields.get("promise_id"))
            if span is not None and span.claim_wait is None:
                span.claim_wait = fields.get("wait")
    return order


def build_trees(events: List[TraceEvent]) -> List[SpanNode]:
    """The causal forest: call and fork spans linked parent → child.

    Returns the root nodes (``parent_span_id`` 0, or orphans whose parent
    never appeared in the trace window), ordered by trace id then start
    time.  Each :class:`SpanNode` of kind ``"call"`` carries its
    :class:`CallSpan` in ``node.call``.
    """
    nodes: Dict[int, SpanNode] = {}
    order: List[SpanNode] = []
    for span in build_spans(events):
        if span.span_id is None:
            continue
        node = SpanNode(
            "call",
            span.name,
            span.t_buffered if span.t_buffered is not None else 0.0,
            span.trace_id,
            span.span_id,
            span.parent_span_id,
            call=span,
        )
        nodes[span.span_id] = node
        order.append(node)
    for event in events:
        if event.type != EV_FORK_SPAWNED:
            continue
        fields = event.fields
        span_id = fields.get("span_id")
        if span_id is None or span_id in nodes:
            continue
        node = SpanNode(
            "fork",
            "fork %s" % fields.get("label", "?"),
            event.time,
            fields.get("trace_id"),
            span_id,
            fields.get("parent_span_id"),
        )
        nodes[span_id] = node
        order.append(node)

    roots: List[SpanNode] = []
    for node in order:
        parent = nodes.get(node.parent_span_id) if node.parent_span_id else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: (child.time, child.span_id))
    roots.sort(key=lambda node: (node.trace_id or 0, node.time, node.span_id))
    return roots


def format_tree(roots: List[SpanNode]) -> str:
    """Render the causal forest as indented text (the ``spans`` CLI)."""
    lines: List[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        detail = ""
        if node.call is not None:
            e2e = node.call.end_to_end
            detail = " [%s]" % (
                "e2e=%.3f" % e2e if e2e is not None else "incomplete"
            )
        lines.append(
            "%s%s t=%.3f trace=%s span=%s%s"
            % ("  " * depth, node.name, node.time, node.trace_id, node.span_id, detail)
        )
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Critical-path analysis
# ----------------------------------------------------------------------
def critical_path(span: CallSpan) -> Dict[str, Any]:
    """Per-call breakdown: each phase's duration and share of the total."""
    phases = span.phases()
    total = span.end_to_end
    dominant = None
    if total:
        dominant = max(
            (phase for phase in PHASES if phases[phase] is not None),
            key=lambda phase: phases[phase],
            default=None,
        )
    return {
        "call": span.name,
        "stream": span.stream,
        "seq": span.seq,
        "complete": span.complete,
        "end_to_end": total,
        "phases": phases,
        "dominant_phase": dominant,
        "claim_wait": span.claim_wait,
    }


def _percentile_summary(histogram: Any) -> Dict[str, float]:
    return {
        "p50": histogram.percentile(50),
        "p99": histogram.percentile(99),
        "p999": histogram.percentile(99.9),
    }


def aggregate_critical_path(spans: List[CallSpan]) -> Dict[str, Any]:
    """Where the run's latency went, summed over all complete spans.

    ``phase_totals`` sums each phase across complete calls;
    ``phase_fractions`` normalizes by the summed end-to-end latency (the
    fractions sum to 1.0 because the phases partition each call's
    latency).  ``end_to_end_percentiles`` and ``phase_percentiles`` carry
    the p50/p99/**p999** distribution summaries (exact, nearest-rank).
    The slowest call is included for drill-down.
    """
    from repro.obs.metrics import Histogram

    complete = [span for span in spans if span.complete]
    totals = {phase: 0.0 for phase in PHASES}
    phase_hists = {phase: Histogram() for phase in PHASES}
    e2e_hist = Histogram()
    e2e_total = 0.0
    slowest: Optional[CallSpan] = None
    for span in complete:
        for phase, duration in span.phases().items():
            totals[phase] += duration
            phase_hists[phase].observe(duration)
        e2e = span.end_to_end
        e2e_total += e2e
        e2e_hist.observe(e2e)
        if slowest is None or e2e > slowest.end_to_end:
            slowest = span
    return {
        "calls": len(spans),
        "complete_calls": len(complete),
        "end_to_end_total": e2e_total,
        "end_to_end_mean": (e2e_total / len(complete)) if complete else None,
        "end_to_end_percentiles": (
            _percentile_summary(e2e_hist) if complete else None
        ),
        "phase_totals": totals,
        "phase_percentiles": (
            {phase: _percentile_summary(phase_hists[phase]) for phase in PHASES}
            if complete
            else None
        ),
        "phase_fractions": (
            {phase: totals[phase] / e2e_total for phase in PHASES}
            if e2e_total
            else None
        ),
        "slowest_call": critical_path(slowest) if slowest is not None else None,
    }


# ----------------------------------------------------------------------
# Graph shard breakdown
# ----------------------------------------------------------------------
def graph_shard_breakdown(events: List[TraceEvent]) -> Dict[str, Dict[str, Any]]:
    """Per-shard accounting of graph execution, from the graph events.

    For each shard that executed routines or shipped epoch frames,
    returns ``routines`` (executions), ``migrated`` (executions a
    ``node_func`` re-routed here), ``busy`` (summed routine compute
    time), ``frames_out`` (epoch/result frames shipped from here) and
    ``units_out`` (deliveries inside them).  Empty when the trace has no
    graph events — the CLI uses that to keep non-graph reports
    unchanged.
    """
    shards: Dict[str, Dict[str, Any]] = {}

    def entry(shard: str) -> Dict[str, Any]:
        found = shards.get(shard)
        if found is None:
            found = shards[shard] = {
                "routines": 0,
                "migrated": 0,
                "busy": 0.0,
                "frames_out": 0,
                "units_out": 0,
            }
        return found

    for event in events:
        if event.type == EV_GRAPH_ROUTINE:
            fields = event.fields
            row = entry(fields["shard"])
            row["routines"] += 1
            row["busy"] += fields.get("cost", 0.0)
            if fields.get("migrated"):
                row["migrated"] += 1
        elif event.type == EV_GRAPH_EPOCH:
            fields = event.fields
            row = entry(fields["shard"])
            row["frames_out"] += 1
            row["units_out"] += fields.get("units", 0)
    return shards


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
# Timestamps: sim time is in milliseconds; the trace-event format wants
# microseconds, hence the ×1000.
_US_PER_SIM = 1000.0


def to_chrome_trace(events: List[TraceEvent]) -> Dict[str, Any]:
    """Render the trace as a Chrome trace-event JSON object.

    One track (pid) per stream, one row (tid) per call seq; each phase of
    each call becomes a complete ("X") slice, so the buffering, wire, and
    execution phases line up visually.  Open the written file in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    spans = build_spans(events)
    stream_pids: Dict[str, int] = {}
    trace_events: List[Dict[str, Any]] = []
    for span in spans:
        pid = stream_pids.get(span.stream)
        if pid is None:
            pid = len(stream_pids) + 1
            stream_pids[span.stream] = pid
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": "stream %s" % span.stream},
                }
            )
        phases = span.phases()
        for index, phase in enumerate(PHASES):
            duration = phases[phase]
            if duration is None:
                continue
            start = getattr(span, _TIMELINE[index])
            trace_events.append(
                {
                    "name": "%s %s" % (span.name, phase),
                    "cat": phase,
                    "ph": "X",
                    "ts": start * _US_PER_SIM,
                    "dur": duration * _US_PER_SIM,
                    "pid": pid,
                    "tid": span.seq,
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "parent_span_id": span.parent_span_id,
                        "status": span.status,
                    },
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: List[TraceEvent], path: str) -> int:
    """Write :func:`to_chrome_trace` to *path*; returns the slice count."""
    document = to_chrome_trace(events)
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return sum(1 for entry in document["traceEvents"] if entry["ph"] == "X")
