"""Structured tracing for the simulation: typed events with sim timestamps.

The tracer is the measurement substrate the ROADMAP's performance work
stands on: instead of inferring what the run did from end state, every hot
layer (kernel processes, network, stream transport, guardians, promises)
emits typed events through one :class:`Tracer` attached to the
:class:`~repro.sim.kernel.Environment`.

Zero overhead when disabled
---------------------------
Tracing is off by default: ``Environment.tracer`` is ``None`` and every
instrumentation site is guarded by a single attribute load plus a ``None``
check::

    tracer = self.env.tracer
    if tracer is not None:
        tracer.emit(EV_MESSAGE_SENT, src=..., dst=...)

No event object, dict or string is ever constructed on the disabled path;
``tests/obs/test_overhead_guard.py`` (marker ``obs_overhead``) enforces
this.

When enabled, the tracer both records the raw event stream (exportable as
JSONL, one event per line) and feeds a :class:`~repro.obs.metrics.Metrics`
registry with per-node / per-stream / per-promise counters and latency
histograms, so most assertions can use aggregates without walking events.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Metrics

__all__ = [
    "TraceEvent",
    "Tracer",
    "load_jsonl",
    "mint_span",
    "summary_from_metrics",
    "trace_meta",
    "EV_TRACE_META",
    # Event type constants, grouped by layer.
    "EV_PROCESS_CREATED",
    "EV_PROCESS_RESUMED",
    "EV_PROCESS_FINISHED",
    "EV_MESSAGE_SENT",
    "EV_MESSAGE_DELIVERED",
    "EV_MESSAGE_DROPPED",
    "EV_NODE_CRASH",
    "EV_NODE_RECOVER",
    "EV_PARTITION",
    "EV_HEAL",
    "EV_CALL_BUFFERED",
    "EV_PACKET_SENT",
    "EV_CALL_DELIVERED",
    "EV_CALL_DUPLICATE",
    "EV_CALL_EXECUTING",
    "EV_CALL_COMPLETED",
    "EV_REPLY_PACKET_SENT",
    "EV_CALL_RESOLVED",
    "EV_WINDOW_STALL",
    "EV_RTT_SAMPLE",
    "EV_BATCH_LIMIT",
    "EV_FORK_SPAWNED",
    "EV_STREAM_BREAK",
    "EV_STREAM_REFUSED",
    "EV_GUARDIAN_CRASHED",
    "EV_GUARDIAN_DESTROYED",
    "EV_PROMISE_CREATED",
    "EV_PROMISE_RESOLVED",
    "EV_PROMISE_CLAIMED",
    "EV_PROMISE_CLAIM_LATENCY",
    "EV_PROMISE_CHAINED",
    "EV_VAT_TURN",
    "EV_GRAPH_ROUTINE",
    "EV_GRAPH_EPOCH",
]

# -- sim layer ---------------------------------------------------------
EV_PROCESS_CREATED = "process.created"
EV_PROCESS_RESUMED = "process.resumed"
EV_PROCESS_FINISHED = "process.finished"

# -- network layer -----------------------------------------------------
EV_MESSAGE_SENT = "message.sent"
EV_MESSAGE_DELIVERED = "message.delivered"
EV_MESSAGE_DROPPED = "message.dropped"
EV_NODE_CRASH = "node.crash"
EV_NODE_RECOVER = "node.recover"
EV_PARTITION = "net.partition"
EV_HEAL = "net.heal"

# -- stream transport layer --------------------------------------------
EV_CALL_BUFFERED = "stream.call_buffered"
EV_PACKET_SENT = "stream.packet_sent"
EV_CALL_DELIVERED = "stream.call_delivered"
EV_CALL_DUPLICATE = "stream.call_duplicate"
EV_CALL_EXECUTING = "stream.call_executing"
EV_CALL_COMPLETED = "stream.call_completed"
EV_REPLY_PACKET_SENT = "stream.reply_packet_sent"
EV_CALL_RESOLVED = "stream.call_resolved"
EV_STREAM_BREAK = "stream.break"
EV_STREAM_REFUSED = "stream.refused"
#: Flow control held ready calls back (adaptive windowed transport, PR 5).
EV_WINDOW_STALL = "stream.window_stall"
#: One Karn-valid RTT measurement fed to the SRTT/RTTVAR estimator.
EV_RTT_SAMPLE = "stream.rtt_sample"
#: The AIMD controller moved the effective batch-size threshold.
EV_BATCH_LIMIT = "stream.batch_limit"

# -- concurrency layer -------------------------------------------------
EV_FORK_SPAWNED = "fork.spawned"

# -- entity layer ------------------------------------------------------
EV_GUARDIAN_CRASHED = "guardian.crashed"
EV_GUARDIAN_DESTROYED = "guardian.destroyed"

# -- promise layer -----------------------------------------------------
EV_PROMISE_CREATED = "promise.created"
EV_PROMISE_RESOLVED = "promise.resolved"
EV_PROMISE_CLAIMED = "promise.claimed"
EV_PROMISE_CLAIM_LATENCY = "promise.claim_latency"
#: A continuation was registered: a derived promise chained off a base one.
EV_PROMISE_CHAINED = "promise.chained"

# -- vat layer ---------------------------------------------------------
#: One vat drain completed (``callbacks`` run, ``pending`` left behind by
#: an aborted drain — normally 0).
EV_VAT_TURN = "vat.turn"

# -- graph layer -------------------------------------------------------
#: One graph routine executed on a shard (``shard``, ``graph``, ``node``,
#: ``callback``, ``cost``, ``migrated``).  ``migrated`` marks executions
#: a ``node_func`` re-routed away from the node's static shard.
EV_GRAPH_ROUTINE = "graph.routine"
#: One graph frame shipped (``shard`` = sender, ``dst``, ``epoch``,
#: ``units`` = deliveries or results inside it).
EV_GRAPH_EPOCH = "graph.epoch"

# -- trace metadata ----------------------------------------------------
#: Synthetic record written by :meth:`Tracer.export_jsonl` when the ring
#: buffer overflowed: carries ``dropped_events`` so offline analysis can
#: tell a truncated trace from a complete one.  Not a simulation event;
#: every consumer of event streams skips it.
EV_TRACE_META = "trace.meta"


def mint_span(env: Any) -> Tuple[int, int, int]:
    """Mint a causal span context ``(trace_id, span_id, parent_span_id)``.

    Called only when tracing is enabled, at the moment a call is made (a
    stream call, an RPC, or a fork).  The parent is the span of the
    currently executing process — set by the dispatcher for handler
    executions and by ``fork`` for forked procedures — so a call made from
    inside a handler nests under the call that started that handler.  A
    call with no enclosing span starts a new trace (``parent_span_id`` 0).

    All identifiers come from the per-environment serial counters
    (:meth:`~repro.sim.kernel.Environment.new_serial`), so span ids are
    deterministic across runs and across environments — the golden-trace
    test compares them verbatim.
    """
    active = env.active_process
    parent = active.span if active is not None else None
    if parent is None:
        # No process is running: we may be inside a vat callback (a
        # promise continuation).  The vat carries the span the
        # continuation was registered under, so calls issued from
        # continuation hops keep nesting under the original caller.
        vat = env.vat
        if vat is not None:
            parent = vat.current_span
    if parent is None:
        return (env.new_serial("trace"), env.new_serial("span"), 0)
    return (parent[0], env.new_serial("span"), parent[1])


class TraceEvent:
    """One recorded event: simulated time, type, and free-form fields."""

    __slots__ = ("time", "type", "fields")

    def __init__(self, time: float, type: str, fields: Dict[str, Any]) -> None:
        self.time = time
        self.type = type
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        record = {"t": self.time, "type": self.type}
        record.update(self.fields)
        return record

    def __repr__(self) -> str:
        return "<TraceEvent t=%.3f %s %r>" % (self.time, self.type, self.fields)


class Tracer:
    """Collects trace events and aggregates metrics for one environment.

    Attach with :meth:`install` (or ``ArgusSystem(tracing=True)``); detach
    by setting ``env.tracer = None``.  With ``capture=False`` the raw event
    list is not kept (metrics only), which bounds memory on long runs.
    With ``max_events=N`` the event store becomes a ring buffer keeping the
    most recent N events (``dropped_events`` counts the overflow), so long
    fault-injection runs can keep full tracing on with bounded memory.
    """

    def __init__(
        self,
        env: Any,
        capture: bool = True,
        metrics: Optional[Metrics] = None,
        max_events: Optional[int] = None,
    ) -> None:
        self.env = env
        self.capture = capture
        self.max_events = max_events
        #: Events evicted from the ring buffer (0 unless max_events is set
        #: and the run outgrew it).
        self.dropped_events = 0
        if max_events is not None:
            if max_events <= 0:
                raise ValueError("max_events must be positive, got %r" % (max_events,))
            self.events: Any = deque(maxlen=max_events)
        else:
            self.events = []
        self.metrics = metrics or Metrics()
        #: Attached :class:`~repro.obs.monitor.MonitorSuite`, or None.
        self.monitors = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def install(
        cls, env: Any, capture: bool = True, max_events: Optional[int] = None
    ) -> "Tracer":
        """Create a tracer and attach it as ``env.tracer``."""
        tracer = cls(env, capture=capture, max_events=max_events)
        env.tracer = tracer
        return tracer

    def uninstall(self) -> None:
        """Detach from the environment (recorded data stays readable)."""
        if getattr(self.env, "tracer", None) is self:
            self.env.tracer = None

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, etype: str, **fields: Any) -> None:
        """Record one event at the current simulated time."""
        now = self.env.now
        if self.capture:
            events = self.events
            if self.max_events is not None and len(events) == self.max_events:
                self.dropped_events += 1
            events.append(TraceEvent(now, etype, fields))
        aggregate = _AGGREGATORS.get(etype)
        if aggregate is not None:
            aggregate(self.metrics, fields)
        monitors = self.monitors
        if monitors is not None:
            monitors.observe(etype, now, fields)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events_of(self, *etypes: str) -> List[TraceEvent]:
        """All captured events of the given type(s), in emission order."""
        wanted = set(etypes)
        return [event for event in self.events if event.type in wanted]

    def count(self, etype: str) -> int:
        """Number of captured events of *etype*."""
        return sum(1 for event in self.events if event.type == etype)

    # ------------------------------------------------------------------
    # Export and reporting
    # ------------------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write the captured events to *path*, one JSON object per line.

        Returns the number of events written.  Field values that are not
        JSON-native are rendered with ``repr``.

        When the ring buffer overflowed (``dropped_events > 0``) the file
        starts with one :data:`EV_TRACE_META` record carrying the drop
        count, so offline tools (``python -m repro.obs summarize``) can
        warn that the trace is truncated instead of silently reading it
        as complete.  Complete traces are written byte-identically to
        before this record existed.
        """
        with open(path, "w") as handle:
            if self.dropped_events:
                meta = {
                    "t": 0.0,
                    "type": EV_TRACE_META,
                    "dropped_events": self.dropped_events,
                    "captured_events": len(self.events),
                }
                handle.write(json.dumps(meta))
                handle.write("\n")
            for event in self.events:
                handle.write(json.dumps(event.to_dict(), default=repr))
                handle.write("\n")
        return len(self.events)

    def summary(self) -> Dict[str, Any]:
        """A JSON-serializable report: metrics plus derived ratios.

        ``derived`` contains the quantities the paper's claims are stated
        in, e.g. wire messages per stream call (the buffering amortization
        of §2) and mean promise claim latency.
        """
        return summary_from_metrics(
            self.metrics, len(self.events), dropped_events=self.dropped_events
        )

    def summary_json(self, path: str) -> Dict[str, Any]:
        """Write :meth:`summary` to *path* as JSON; returns the report."""
        report = self.summary()
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True, default=repr)
            handle.write("\n")
        return report

    def __repr__(self) -> str:
        return "<Tracer events=%d capture=%r>" % (len(self.events), self.capture)


def summary_from_metrics(
    metrics: Metrics, event_count: int, dropped_events: int = 0
) -> Dict[str, Any]:
    """The :meth:`Tracer.summary` report, computable from any metrics
    registry — including one rebuilt offline from an exported JSONL trace
    (see :func:`replay_metrics` and the ``summarize`` CLI subcommand).

    ``dropped_events`` (from :attr:`Tracer.dropped_events` live, or the
    trace's :data:`EV_TRACE_META` record offline) is surfaced in the
    report so a ring-buffer-truncated trace is never read as complete.
    """
    report = metrics.summary()
    calls = metrics.total("stream.calls")
    wire_messages = metrics.total("net.messages_sent")
    claim_wait = metrics.merged_histogram("promise.claim_latency")
    derived: Dict[str, Any] = {
        "stream_calls": calls,
        "wire_messages": wire_messages,
        "messages_per_call": (wire_messages / calls) if calls else None,
        "promises_outstanding": (
            metrics.total("promise.created") - metrics.total("promise.resolved")
        ),
        "mean_claim_latency": claim_wait.mean if claim_wait.count else None,
    }
    report["derived"] = derived
    report["event_count"] = event_count
    report["dropped_events"] = dropped_events
    return report


def trace_meta(events: List[TraceEvent]) -> Dict[str, Any]:
    """The trace's metadata, folded from its :data:`EV_TRACE_META` records.

    Returns ``{"dropped_events": 0}`` for a complete trace.  Loaded traces
    keep meta records inline in the event list (consumers that dispatch on
    event type skip them naturally); this helper is how readers check for
    truncation without scanning themselves.
    """
    meta: Dict[str, Any] = {"dropped_events": 0}
    for event in events:
        if event.type == EV_TRACE_META:
            meta["dropped_events"] += event.fields.get("dropped_events", 0)
            if "captured_events" in event.fields:
                meta["captured_events"] = event.fields["captured_events"]
    return meta


def replay_metrics(events: List[TraceEvent]) -> Metrics:
    """Rebuild a :class:`Metrics` registry by re-aggregating *events*.

    Inverse of the live path: a loaded JSONL trace carries only raw events,
    so the CLI replays them through the same aggregation table the tracer
    uses online.
    """
    metrics = Metrics()
    for event in events:
        aggregate = _AGGREGATORS.get(event.type)
        if aggregate is not None:
            aggregate(metrics, event.fields)
    return metrics


def load_jsonl(path: str) -> List[TraceEvent]:
    """Read a trace exported with :meth:`Tracer.export_jsonl`.

    Returns the events in file order as :class:`TraceEvent` objects, so
    everything that consumes ``tracer.events`` — the span builder, the
    critical-path analyzer, the Chrome exporter, metric replay — works the
    same on a loaded trace.  Blank lines are skipped.  A line that is not
    JSON, or not an object with ``t`` and ``type``, raises ``ValueError``
    naming ``path:line``.
    """
    events: List[TraceEvent] = []
    with open(path, "r") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    "%s:%d: not a JSONL trace (invalid JSON: %s)" % (path, number, exc)
                ) from None
            if not isinstance(record, dict) or "t" not in record or "type" not in record:
                raise ValueError(
                    "%s:%d: not a trace event (need an object with 't' and 'type')"
                    % (path, number)
                )
            time = record.pop("t")
            etype = record.pop("type")
            events.append(TraceEvent(time, etype, record))
    return events


# ----------------------------------------------------------------------
# Event → metrics aggregation
# ----------------------------------------------------------------------
# Aggregation lives here, in one table, so instrumentation sites stay a
# single ``emit`` call and the metric vocabulary has one home.

def _agg_message_sent(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("net.messages_sent", node=fields["src"])
    metrics.observe("net.message_bytes", fields["bytes"], node=fields["src"])


def _agg_message_delivered(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("net.messages_delivered", node=fields["dst"])
    latency = fields.get("latency")
    if latency is not None:
        metrics.observe("net.delivery_latency", latency)


def _agg_message_dropped(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("net.messages_dropped", reason=fields["reason"])


def _agg_call_buffered(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.calls", stream=fields["stream"], kind=fields["kind"])
    metrics.observe(
        "stream.buffer_occupancy", fields["buffered"], stream=fields["stream"]
    )


def _agg_packet_sent(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.packets_sent", stream=fields["stream"])
    metrics.observe("stream.batch_size", fields["entries"], stream=fields["stream"])
    if fields.get("attempt", 0) > 0:
        metrics.inc("stream.retransmissions", stream=fields["stream"])


def _agg_call_delivered(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.calls_delivered", stream=fields["stream"])


def _agg_call_duplicate(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.duplicates", stream=fields["stream"])


def _agg_call_executing(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.calls_executing", stream=fields["stream"])


def _agg_call_completed(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc(
        "stream.calls_completed", stream=fields["stream"], status=fields["status"]
    )


def _agg_fork_spawned(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("concurrency.forks")


def _agg_reply_packet_sent(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.reply_packets_sent", stream=fields["stream"])
    metrics.observe(
        "stream.reply_batch_size", fields["entries"], stream=fields["stream"]
    )
    sacks = fields.get("sacks")
    if sacks:
        metrics.inc("stream.sack_ranges_sent", amount=sacks, stream=fields["stream"])


def _agg_window_stall(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.window_stalls", stream=fields["stream"])
    metrics.observe(
        "stream.window_deferred", fields["deferred"], stream=fields["stream"]
    )


def _agg_rtt_sample(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.observe("stream.rtt", fields["sample"], stream=fields["stream"])
    metrics.observe("stream.rto", fields["rto"], stream=fields["stream"])


def _agg_batch_limit(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.observe("stream.batch_limit", fields["limit"], stream=fields["stream"])


def _agg_call_resolved(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc(
        "stream.calls_resolved", stream=fields["stream"], status=fields["status"]
    )


def _agg_stream_break(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.breaks", side=fields["side"])


def _agg_stream_refused(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("stream.refused")


def _agg_guardian_crashed(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("guardian.crashes", guardian=fields["guardian"])


def _agg_guardian_destroyed(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("guardian.destroyed", guardian=fields["guardian"])


def _agg_promise_created(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("promise.created")


def _agg_promise_resolved(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("promise.resolved", status=fields["status"])
    metrics.observe("promise.resolve_latency", fields["age"])


def _agg_promise_claimed(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("promise.claims", ready=fields["ready"])


def _agg_promise_claim_latency(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.observe("promise.claim_latency", fields["wait"])


def _agg_promise_chained(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("promise.chained", kind=fields["kind"])


def _agg_vat_turn(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("vat.turns")
    metrics.observe("vat.turn_callbacks", fields["callbacks"])


def _agg_process_created(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("sim.processes_created")


def _agg_process_resumed(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("sim.process_resumptions")


def _agg_process_finished(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("sim.processes_finished", status=fields["status"])


def _agg_graph_routine(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("graph.routines", shard=fields["shard"])
    metrics.observe("graph.routine_cost", fields["cost"], shard=fields["shard"])
    if fields.get("migrated"):
        metrics.inc("graph.migrations", shard=fields["shard"])


def _agg_graph_epoch(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("graph.epochs", shard=fields["shard"])
    metrics.observe("graph.epoch_units", fields["units"], shard=fields["shard"])


def _agg_node_crash(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("net.node_crashes", node=fields["node"])


def _agg_node_recover(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("net.node_recoveries", node=fields["node"])


def _agg_partition(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("net.partitions")


def _agg_heal(metrics: Metrics, fields: Dict[str, Any]) -> None:
    metrics.inc("net.heals")


_AGGREGATORS = {
    EV_MESSAGE_SENT: _agg_message_sent,
    EV_MESSAGE_DELIVERED: _agg_message_delivered,
    EV_MESSAGE_DROPPED: _agg_message_dropped,
    EV_CALL_BUFFERED: _agg_call_buffered,
    EV_PACKET_SENT: _agg_packet_sent,
    EV_CALL_DELIVERED: _agg_call_delivered,
    EV_CALL_DUPLICATE: _agg_call_duplicate,
    EV_CALL_EXECUTING: _agg_call_executing,
    EV_CALL_COMPLETED: _agg_call_completed,
    EV_FORK_SPAWNED: _agg_fork_spawned,
    EV_REPLY_PACKET_SENT: _agg_reply_packet_sent,
    EV_CALL_RESOLVED: _agg_call_resolved,
    EV_WINDOW_STALL: _agg_window_stall,
    EV_RTT_SAMPLE: _agg_rtt_sample,
    EV_BATCH_LIMIT: _agg_batch_limit,
    EV_STREAM_BREAK: _agg_stream_break,
    EV_STREAM_REFUSED: _agg_stream_refused,
    EV_GUARDIAN_CRASHED: _agg_guardian_crashed,
    EV_GUARDIAN_DESTROYED: _agg_guardian_destroyed,
    EV_PROMISE_CREATED: _agg_promise_created,
    EV_PROMISE_RESOLVED: _agg_promise_resolved,
    EV_PROMISE_CLAIMED: _agg_promise_claimed,
    EV_PROMISE_CLAIM_LATENCY: _agg_promise_claim_latency,
    EV_PROMISE_CHAINED: _agg_promise_chained,
    EV_VAT_TURN: _agg_vat_turn,
    EV_GRAPH_ROUTINE: _agg_graph_routine,
    EV_GRAPH_EPOCH: _agg_graph_epoch,
    EV_PROCESS_CREATED: _agg_process_created,
    EV_PROCESS_RESUMED: _agg_process_resumed,
    EV_PROCESS_FINISHED: _agg_process_finished,
    EV_NODE_CRASH: _agg_node_crash,
    EV_NODE_RECOVER: _agg_node_recover,
    EV_PARTITION: _agg_partition,
    EV_HEAL: _agg_heal,
}
