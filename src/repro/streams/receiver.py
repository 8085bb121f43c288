"""The receiving end of a call-stream.

One :class:`StreamReceiver` exists per incoming stream incarnation at a
guardian.  It provides the receiver half of the §2 guarantees:

* exactly-once, in-call-order delivery of requests to the application
  (duplicates from retransmission are recognized and re-acknowledged;
  out-of-order arrivals are buffered);
* replies returned in call order, buffered and batched ("replies ...
  are buffered and sent when convenient"), with normal replies of *sends*
  omitted — the cumulative ``completed_seq`` watermark stands in for them;
* reaction to the sender's ``flush`` and ``synch`` flags;
* stream breaks: a decode failure breaks the stream *synchronously* (the
  failing call and its predecessors are unaffected, later calls are
  discarded); lost receiver state (crash) breaks it *asynchronously*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.outcome import Outcome
from repro.encoding.errors import DecodeError, EncodeError
from repro.encoding.transmit import OutcomeCodec
from repro.net.network import Network
from repro.sim.alarm import Alarm
from repro.sim.kernel import Environment
from repro.streams.config import StreamConfig
from repro.types.signatures import HandlerType

from repro.streams.wire import (
    KIND_BATCH,
    KIND_RPC,
    KIND_SEND,
    BreakNotice,
    CallEntry,
    CallPacket,
    ReplyEntry,
    ReplyPacket,
    StreamKey,
    send_packet,
)

__all__ = ["StreamReceiver", "CallDispatcher", "ReceiverStats"]

# Codec used to encode failure outcomes for calls whose port is unknown.
_EMPTY_HANDLER_TYPE = HandlerType()


class CallDispatcher:
    """What the transport needs from the entity layer.

    ``dispatch`` is called once per in-order delivered request; the entity
    layer executes the call (respecting per-stream sequencing) and reports
    the outcome back via :meth:`StreamReceiver.post_outcome`.
    """

    def dispatch(
        self,
        receiver: "StreamReceiver",
        seq: int,
        port_id: str,
        args_bytes: bytes,
        kind: str,
        span: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        """Execute one in-order request; report via post_outcome.

        *span* is the call's causal trace context (None when tracing is
        disabled); the entity layer attaches it to the handler process so
        nested calls made by the handler parent under this call.
        """
        raise NotImplementedError

    def stop(self, reason: str) -> None:
        """Called when the stream breaks; pending work should be dropped."""


class ReceiverStats:
    """Counters exposed for tests and benchmarks."""

    def __init__(self) -> None:
        self.calls_delivered = 0
        self.duplicates = 0
        self.reply_packets_sent = 0
        self.pure_acks_sent = 0
        self.sack_ranges_sent = 0
        self.breaks = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters, stable-ordered by name so
        golden tests can compare snapshots textually."""
        return {name: self.__dict__[name] for name in sorted(self.__dict__)}


class StreamReceiver:
    """Receiving end of one stream incarnation."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        key: StreamKey,
        incarnation: int,
        dispatcher: CallDispatcher,
        config: Optional[StreamConfig] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.key = key
        self.incarnation = incarnation
        self.dispatcher = dispatcher
        self.config = config or StreamConfig()
        self.stats = ReceiverStats()
        #: Compact stream identity used in trace events and metric labels
        #: (matches the sending side's label for the same stream).
        self.trace_label = "%s->%s:%s" % (key.agent_id, key.dst_node, key.group_id)

        self.expected_seq = 1
        self.completed_seq = 0
        #: True until the receiver is handed its first entry-bearing
        #: packet.  On a node that has crashed, the transport endpoint
        #: keeps applying the stream-start rule (first transmission,
        #: entries from seq 1) to virgin receivers: a receiver opened by an
        #: empty packet (a reincarnation announce or a bare ack) must not
        #: let a later retransmission deliver entries that may already
        #: have executed before the crash.
        self.virgin = True
        self.broken: Optional[BreakNotice] = None
        self._out_of_order: Dict[int, CallEntry] = {}
        self._reply_buffer: List[ReplyEntry] = []
        self._reply_log: Dict[int, ReplyEntry] = {}
        self._pending_synch_seq: Optional[int] = None
        #: Seq range (lo, hi) of the calls that travelled with the most
        #: recent explicit flush: their replies are sent as soon as
        #: produced (the paper's flush "ensures the last few calls (and
        #: replies) are sent out quickly").  Earlier calls keep batching.
        self._flush_through_range = (0, -1)
        #: Outcomes that arrived ahead of order (possible when the entity
        #: layer executes same-stream calls in parallel, the §2.1
        #: override); released strictly in call order.
        self._outcome_stash: Dict[int, Tuple[Outcome, str, Optional[OutcomeCodec]]] = {}
        self._next_outcome_seq = 1
        self._last_acked_call = 0
        self._last_sent_completed = 0
        #: Reply-buffer size trigger.  It mirrors the size of the sender's first-transmission call packets: a
        #: sender shipping 64 calls a packet has already traded first-call
        #: latency for throughput, and AIMD halving after loss shrinks
        #: the reply batches with it.  ``reply_batch_size`` is the floor.
        self._reply_batch = self.config.reply_batch_size
        self._reply_alarm = Alarm(env, self._on_reply_deadline)
        self._ack_alarm = Alarm(env, self._on_ack_deadline)

    # ------------------------------------------------------------------
    # Packet intake
    # ------------------------------------------------------------------
    def on_call_packet(self, packet: CallPacket) -> None:
        """Process an incoming batch of call requests."""
        if packet.entries:
            self.virgin = False
        # The sender has resolved replies up to ack_reply_seq; forget them
        # (the log is insertion-ordered by seq, so they form a prefix).
        reply_log = self._reply_log
        while reply_log:
            seq = next(iter(reply_log))
            if seq > packet.ack_reply_seq:
                break
            del reply_log[seq]

        if self.broken is not None:
            # "further calls on that stream will be discarded at the
            # receiver" — but keep telling the sender why.
            self._flush_replies()
            return

        # Note: a fresh receiver seeing mid-stream sequence numbers is NOT
        # treated as lost state — the first packet may simply have been
        # lost; retransmission delivers the gap.  Genuinely lost
        # receiver state (a crash) surfaces as retransmission exhaustion at
        # the sender: an asynchronous break, as §2 specifies.
        resend_needed = False
        new_out_of_order = False
        # The sender emits entries in seq order; a foreign order would
        # only detour through the out-of-order buffer.
        entries = packet.entries
        for entry in entries:
            if self.broken is not None:
                break
            if entry.seq < self.expected_seq:
                self.stats.duplicates += 1
                tracer = self.env.tracer
                if tracer is not None:
                    tracer.emit(
                        "stream.call_duplicate",
                        stream=self.trace_label,
                        incarnation=self.incarnation,
                        seq=entry.seq,
                    )
                resend_needed = True
                continue
            if entry.seq == self.expected_seq:
                self._deliver(entry)
                self._drain_out_of_order()
            elif entry.seq not in self._out_of_order:
                self._out_of_order[entry.seq] = entry
                new_out_of_order = True

        if packet.synch_seq is not None:
            if self._pending_synch_seq is None or packet.synch_seq > self._pending_synch_seq:
                self._pending_synch_seq = packet.synch_seq
        if entries and packet.attempt == 0:
            size = min(len(entries), self.config.max_batch_size)
            # A flush travels with the tail of a burst — whatever was left
            # over, not the sender's batch size: it may raise the trigger
            # but not lower it.
            if size > self._reply_batch or not packet.flush_replies:
                self._reply_batch = max(self.config.reply_batch_size, size)
        routine_flush = packet.flush_replies and packet.attempt == 0
        if routine_flush:
            # The calls that travelled *with* an explicit flush are its
            # "last few calls": their replies go out as soon as produced.
            # Earlier calls keep normal reply batching, and retransmission
            # probes (attempt > 0) only flush current state below — they
            # must not disable batching for everything they happen to
            # carry.
            if entries:
                seqs = [entry.seq for entry in entries]
                self._flush_through_range = (min(seqs), max(seqs))
            else:
                # The batch trigger had already pushed every call: the
                # flush covers whatever is still queued or executing.
                self._flush_through_range = (
                    self.completed_seq + 1,
                    self.expected_seq - 1,
                )

        if resend_needed:
            # Lost replies suspected: retransmit everything unacknowledged.
            self._flush_replies(include_log=True)
        elif (
            routine_flush
            and not self._reply_buffer
            and self.completed_seq < self._flush_through_range[1] < self.expected_seq
        ):
            # Its calls are queued or executing: their completion sends
            # the reply, which carries everything a pure ack would say
            # now.  The ack alarm covers a long handler.
            self._ack_alarm.arm_if_idle(self.config.ack_delay)
        elif packet.flush_replies and (
            self._reply_buffer or self._reply_log or self._ack_outstanding()
        ):
            # Include the whole unacknowledged reply log: a flush request
            # may be the sender probing after *reply* packets were lost,
            # and only entries the sender has not acked are still in the
            # log, so this stays cheap in the common case.
            # First-transmission flushes (attempt 0) are routine segments
            # of a window-paced burst, not loss probes — resending the
            # log there is pure duplication, and actual reply loss still
            # surfaces as an attempt > 0 probe when the sender's RTO
            # fires.
            self._flush_replies(include_log=packet.attempt > 0)
        elif new_out_of_order:
            # A gap just opened (or widened): tell the sender immediately
            # which seqs we hold, so its selective retransmission — and the
            # duplicate-ack fast path — can react before the RTO expires.
            self._flush_replies()
        elif self._pending_synch_seq is not None and self.completed_seq >= self._pending_synch_seq:
            self._flush_replies()
        elif self._ack_outstanding():
            self._ack_alarm.arm_if_idle(self.config.ack_delay)

    def _drain_out_of_order(self) -> None:
        while self.broken is None and self.expected_seq in self._out_of_order:
            self._deliver(self._out_of_order.pop(self.expected_seq))

    def _deliver(self, entry: CallEntry) -> None:
        """Hand one in-order request to the entity layer."""
        self.expected_seq = entry.seq + 1
        self.stats.calls_delivered += 1
        span = entry.span
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.call_delivered",
                stream=self.trace_label,
                incarnation=self.incarnation,
                seq=entry.seq,
                port=entry.port_id,
                kind=entry.kind,
                trace_id=span[0] if span is not None else None,
                span_id=span[1] if span is not None else None,
                parent_span_id=span[2] if span is not None else None,
            )
        self.dispatcher.dispatch(
            self, entry.seq, entry.port_id, entry.args_bytes, entry.kind, span
        )

    # ------------------------------------------------------------------
    # Outcome intake (from the entity layer)
    # ------------------------------------------------------------------
    def post_outcome(
        self,
        seq: int,
        outcome: Outcome,
        kind: str,
        codec: Optional[OutcomeCodec],
    ) -> None:
        """Record the outcome of call *seq* and ship it per policy.

        Outcomes may be posted out of call order (parallel execution mode);
        they are buffered and *released* strictly in call order, preserving
        the §2 guarantee that replies travel in call order.

        *codec* is None only when the port was unknown; the failure outcome
        is then encoded with an empty-signature codec.
        """
        if seq < self._next_outcome_seq or seq in self._outcome_stash:
            return  # duplicate
        self._outcome_stash[seq] = (outcome, kind, codec)
        while self._next_outcome_seq in self._outcome_stash:
            next_seq = self._next_outcome_seq
            next_outcome, next_kind, next_codec = self._outcome_stash.pop(next_seq)
            self._next_outcome_seq += 1
            self._release_outcome(next_seq, next_outcome, next_kind, next_codec)

    def _release_outcome(
        self,
        seq: int,
        outcome: Outcome,
        kind: str,
        codec: Optional[OutcomeCodec],
    ) -> None:
        if self.broken is not None and seq > self.broken.after_seq:
            return
        self.completed_seq = max(self.completed_seq, seq)

        entry: Optional[ReplyEntry] = None
        if kind in (KIND_SEND, KIND_BATCH) and outcome.is_normal:
            # "in the case of sends, normal replies can be omitted."
            # Epoch batch frames share the omission: the watermark acks
            # a whole epoch in one field.
            entry = None
        else:
            encoder = codec or OutcomeCodec.for_type(_EMPTY_HANDLER_TYPE)
            try:
                outcome_bytes = encoder.encode(outcome)
            except EncodeError as exc:
                # Result encoding failed at the receiver: the call fails and
                # "when the problem happens at the receiver, the stream
                # breaks" (§3) — synchronously, after this call.
                outcome_bytes = encoder.encode(
                    Outcome.failure("could not encode: %s" % (exc,))
                )
                entry = ReplyEntry(seq, outcome_bytes)
                self._append_reply(entry)
                self._break(
                    BreakNotice(
                        synchronous=True,
                        after_seq=seq,
                        reason="could not encode reply for call %d" % seq,
                    )
                )
                return
            entry = ReplyEntry(seq, outcome_bytes)

        if entry is not None:
            self._append_reply(entry)

        if kind == KIND_RPC:
            self._flush_replies()
        elif len(self._reply_buffer) >= self._reply_batch:
            self._flush_replies()
        elif self.config.reply_max_delay == 0.0 and self._reply_buffer:
            self._flush_replies()
        elif self._pending_synch_seq is not None and self.completed_seq >= self._pending_synch_seq:
            self._flush_replies()
        elif (
            self._flush_through_range[0] <= seq <= self._flush_through_range[1]
            and self.completed_seq >= self.expected_seq - 1
        ):
            # This call was covered by an explicit flush: its reply (or
            # completion watermark, for sends) goes out promptly.  A flush
            # can cover a whole window-deferred burst; while earlier
            # delivered calls are still executing, more replies are
            # imminent, so let them coalesce (the batch-size trigger above
            # and the reply alarm below bound the delay) — the burst's
            # last completion still flushes immediately.
            self._flush_replies()
        elif self._reply_buffer:
            self._reply_alarm.arm_if_idle(self.config.reply_max_delay)
        elif self._ack_outstanding():
            # A send completed normally: only the watermark must travel.
            self._ack_alarm.arm_if_idle(self.config.ack_delay)

    def decode_failure(self, seq: int, kind: str, exc: DecodeError) -> None:
        """Argument decoding failed: fail the call and break the stream.

        "Such a failure causes the call to terminate with the failure
        exception.  In addition, when the problem happens at the receiver,
        the stream breaks so that further calls on that stream will be
        discarded." (§3)
        """
        self.post_outcome(
            seq, Outcome.failure("could not decode: %s" % (exc,)), kind, None
        )
        if self.broken is None:
            self._break(
                BreakNotice(
                    synchronous=True,
                    after_seq=seq,
                    reason="could not decode call %d" % seq,
                )
            )

    # ------------------------------------------------------------------
    # Reply shipping
    # ------------------------------------------------------------------
    def _append_reply(self, entry: ReplyEntry) -> None:
        self._reply_log[entry.seq] = entry
        self._reply_buffer.append(entry)

    def _ack_outstanding(self) -> bool:
        return (
            self.expected_seq - 1 > self._last_acked_call
            or self.completed_seq > self._last_sent_completed
        )

    def _sack_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Out-of-order holdings compressed into closed (lo, hi) ranges."""
        if not self._out_of_order:
            return ()
        seqs = sorted(self._out_of_order)
        ranges = []
        lo = prev = seqs[0]
        for seq in seqs[1:]:
            if seq == prev + 1:
                prev = seq
            else:
                ranges.append((lo, prev))
                lo = prev = seq
        ranges.append((lo, prev))
        return tuple(ranges)

    def _flush_replies(self, include_log: bool = False) -> None:
        self._reply_alarm.cancel()
        self._ack_alarm.cancel()
        if include_log:
            entries = list(self._reply_log.values())
            self._reply_buffer = []
        else:
            entries, self._reply_buffer = self._reply_buffer, []
        sack_ranges = self._sack_ranges()
        packet = ReplyPacket(
            self.key,
            self.incarnation,
            entries,
            ack_call_seq=self.expected_seq - 1,
            completed_seq=self.completed_seq,
            broken=self.broken,
            sack_ranges=sack_ranges,
            # Our cap on transmitted-but-unresolved calls; the sender does
            # the accounting (StreamSender._window_allowance).
            window=self.config.max_inflight_calls,
        )
        if not send_packet(self.network, packet):
            return
        self._last_acked_call = self.expected_seq - 1
        self._last_sent_completed = self.completed_seq
        self.stats.reply_packets_sent += 1
        if not entries:
            self.stats.pure_acks_sent += 1
        if sack_ranges:
            self.stats.sack_ranges_sent += len(sack_ranges)
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.reply_packet_sent",
                stream=self.trace_label,
                incarnation=self.incarnation,
                entries=len(entries),
                ack_call_seq=packet.ack_call_seq,
                completed_seq=packet.completed_seq,
                sacks=len(sack_ranges),
                window=packet.window,
                # Reply entries travel in seq order; the range (plus the
                # completed_seq watermark, which covers sends with no reply
                # entry) dates each call's reply-on-wire phase.
                seq_lo=entries[0].seq if entries else None,
                seq_hi=entries[-1].seq if entries else None,
            )
        if self._pending_synch_seq is not None and self.completed_seq >= self._pending_synch_seq:
            self._pending_synch_seq = None

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _on_reply_deadline(self) -> None:
        if self._reply_buffer:
            self._flush_replies()

    def _on_ack_deadline(self) -> None:
        if self._ack_outstanding():
            self._flush_replies()

    # ------------------------------------------------------------------
    # Breaks
    # ------------------------------------------------------------------
    def _break(self, notice: BreakNotice) -> None:
        if self.broken is not None:
            return
        self.stats.breaks += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.break",
                stream=self.trace_label,
                side="receiver",
                reason=notice.reason,
                permanent=notice.permanent,
                synchronous=notice.synchronous,
            )
        self.broken = notice
        self._out_of_order.clear()
        self.dispatcher.stop(notice.reason)
        self._flush_replies()
