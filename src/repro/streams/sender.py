"""The sending end of a call-stream.

One :class:`StreamSender` exists per (agent, port group) pair — "All calls
sent by an agent to ports in a port group are sent on the same stream, and
thus are sequenced" (§2).  It implements:

* the three call varieties — RPCs (transmitted immediately, caller waits),
  stream calls (buffered, a promise is returned), and sends (stream calls
  to handlers with no normal results; normal replies are omitted);
* buffering with size and delay triggers (a triggered packet waits, and
  grows, while the kernel is still sending the last one), and the paper's
  ``flush`` and ``synch`` primitives;
* exactly-once delivery over the unreliable network, via cumulative
  acknowledgements plus SACK-driven *selective* retransmission;
* sender-side flow control: transmitted-but-unresolved calls never
  exceed the cap the receiver advertises, so bulk workloads cannot
  overrun receiver memory (see :meth:`StreamSender._window_allowance`);
* AIMD self-tuning of the batch size and a Jacobson SRTT/RTTVAR estimate
  driving the retransmission timeout (see DESIGN.md §11);
* in-call-order resolution of promises ("if the i+1st result is ready,
  then so is the ith");
* break detection (retransmission exhaustion, receiver notices), mapping
  broken calls to ``unavailable``/``failure`` and automatic restart through
  stream *reincarnation*.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.concurrency.critical import is_wounded
from repro.core.exceptions import ExceptionReply, Failure, Unavailable
from repro.core.outcome import Outcome
from repro.core.promise import Promise
from repro.encoding.errors import DecodeError, EncodeError
from repro.encoding.transmit import ArgsCodec, OutcomeCodec
from repro.net.network import Network
from repro.obs.trace import mint_span
from repro.sim.alarm import Alarm
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.streams.config import StreamConfig
from repro.streams.wire import (
    KIND_BATCH,
    KIND_RPC,
    KIND_SEND,
    KIND_STREAM,
    BreakNotice,
    CallEntry,
    CallPacket,
    ReplyPacket,
    StreamKey,
    send_packet,
)
from repro.types.signatures import HandlerType

__all__ = ["StreamSender", "SenderStats"]


class SenderStats:
    """Counters exposed for tests and benchmarks."""

    def __init__(self) -> None:
        self.calls_made = 0
        self.rpcs_made = 0
        self.sends_made = 0
        self.packets_sent = 0
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.reply_gap_probes = 0
        self.retransmitted_calls_avoided = 0
        self.window_stalls = 0
        self.max_inflight = 0
        self.rtt_samples = 0
        self.breaks = 0
        self.flushes = 0
        self.synchs = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters, stable-ordered by name so
        golden tests can compare snapshots textually."""
        return {name: self.__dict__[name] for name in sorted(self.__dict__)}


class _PendingCall:
    """Sender-side bookkeeping for one outstanding call."""

    __slots__ = ("seq", "kind", "promise", "codec", "entry")

    def __init__(
        self,
        seq: int,
        kind: str,
        promise: Optional[Promise],
        codec: OutcomeCodec,
        entry: CallEntry,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.promise = promise
        self.codec = codec
        self.entry = entry


class StreamSender:
    """Sending end of one stream (one agent × one port group)."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        key: StreamKey,
        config: Optional[StreamConfig] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.key = key
        self.config = config or StreamConfig()
        self.stats = SenderStats()
        #: Compact stream identity used in trace events and metric labels.
        self.trace_label = "%s->%s:%s" % (key.agent_id, key.dst_node, key.group_id)
        self.incarnation = 0
        #: True when the stream is broken and auto_restart is off.
        self.broken = False
        self._break_exception: Optional[Exception] = None
        # Path-quality state survives reincarnation: the network between
        # the two nodes is the same, so RTT estimates and the learned
        # batch size stay useful across restarts.
        self._batch_limit = float(self.config.batch_size)
        #: How far a packet may grow while the kernel is still sending an
        #: earlier one: a full batch until the first loss signal, nothing
        #: beyond the AIMD limit after it (slow start, then ssthresh).
        self._hold_limit = max(self.config.max_batch_size, self.config.batch_size)
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto_backoff = 1.0
        #: Whether the last break left calls the receiver may still be
        #: executing, so the next incarnation must announce itself.
        self._had_outstanding_at_break = False
        self._reset_incarnation_state()
        self._buffer_alarm = Alarm(env, self._on_buffer_deadline)
        self._rto_alarm = Alarm(env, self._on_rto)
        self._reply_ack_alarm = Alarm(env, self._on_reply_ack_deadline)
        #: Highest ack_reply_seq actually transmitted to the receiver.
        self._sent_ack_reply_seq = 0

    def _reset_incarnation_state(self) -> None:
        self._next_seq = 1
        self._next_resolve = 1
        #: Highest seq transmitted so far (the top of the flight).
        self._sent_seq = 0
        self._buffer: List[CallEntry] = []
        #: Entries released from the buffer (batch trigger / flush) but
        #: held back by the flow-control window, in seq order.
        self._ready: List[CallEntry] = []
        self._unacked: "OrderedDict[int, CallEntry]" = OrderedDict()
        self._pending: Dict[int, _PendingCall] = {}
        self._outcomes: Dict[int, Outcome] = {}
        self._completed_seq = 0
        self._retries = 0
        self._synch_base = 0
        self._exceptional_seqs: set = set()
        self._synch_waiters: List[Tuple[int, Event]] = []
        self._pending_flush_replies = False
        self._pending_synch_seq: Optional[int] = None
        #: Seqs the receiver holds out of order (SACK): skipped on
        #: retransmission, dropped once the cumulative ack passes them.
        self._sacked: set = set()
        #: First-transmission times per seq (Karn: cleared on retransmit),
        #: feeding the RTT estimator.
        self._send_times: Dict[int, float] = {}
        #: Latest cap the receiver advertised (None until it speaks).
        self._window: Optional[int] = None
        # Duplicate-ack tracking for fast retransmission.
        self._dupack_seq = -1
        self._dupacks = 0
        self._fast_resent_for = -1
        #: Resolve cursor at the last reply-gap probe (once per stall).
        self._reply_gap_probed = 0

    # ------------------------------------------------------------------
    # Public call interface
    # ------------------------------------------------------------------
    def stream_call(
        self,
        port_id: str,
        handler_type: HandlerType,
        args: Sequence[Any],
        want_promise: bool = True,
    ) -> Optional[Promise]:
        """Make a stream call; returns the promise (or None in statement
        form).  Raises ``failure``/``unavailable`` immediately if encoding
        fails or the stream is broken — in that case "no promise object is
        created" (§3).
        """
        # "whenever a stream call is made to a handler with no normal
        # results, the Argus implementation makes the call as a send."
        kind = KIND_STREAM if handler_type.has_results else KIND_SEND
        return self._call(port_id, handler_type, args, kind, want_promise)

    def send(
        self,
        port_id: str,
        handler_type: HandlerType,
        args: Sequence[Any],
        want_promise: bool = False,
    ) -> Optional[Promise]:
        """Make an explicit send (reply only on abnormal termination)."""
        return self._call(port_id, handler_type, args, KIND_SEND, want_promise)

    def batch(
        self,
        port_id: str,
        handler_type: HandlerType,
        args: Sequence[Any],
        want_promise: bool = False,
    ) -> Optional[Promise]:
        """Ship one epoch batch frame (see :mod:`repro.graph`).

        A batch is a send on the wire — no reply data on normal
        completion, the ``completed_seq`` watermark stands in for it —
        but it is flushed immediately: an epoch boundary *is* the
        batching decision, so holding the frame for the stream's own
        buffer triggers would only delay the epoch.
        """
        promise = self._call(port_id, handler_type, args, KIND_BATCH, want_promise)
        self._flush_buffer()
        return promise

    def rpc(self, port_id: str, handler_type: HandlerType, args: Sequence[Any]) -> Event:
        """Make an ordinary RPC: transmit immediately, wait for the reply.

        Returns an event to ``yield``; it delivers the call's normal result
        or raises its exception, exactly like claiming the promise at once.
        """
        try:
            promise = self._call(port_id, handler_type, args, KIND_RPC, True)
        except (Failure, Unavailable) as exc:
            failed = Event(self.env)
            failed.defused = True
            failed.fail(exc)
            return failed
        return promise.claim()

    def _call(
        self,
        port_id: str,
        handler_type: HandlerType,
        args: Sequence[Any],
        kind: str,
        want_promise: bool,
    ) -> Optional[Promise]:
        self._check_usable()
        try:
            args_bytes = ArgsCodec.for_type(handler_type).encode(tuple(args))
        except EncodeError as exc:
            raise Failure("could not encode: %s" % (exc,)) from exc

        seq = self._next_seq
        self._next_seq += 1
        tracer = self.env.tracer
        span = None
        if tracer is not None:
            # Causal context: minted here, at the calling agent, and
            # carried on the entry so every later event of this call —
            # delivery, execution, reply, resolution — attaches to it.
            span = mint_span(self.env)
        entry = CallEntry(seq, port_id, kind, args_bytes, span)
        promise = None
        if want_promise:
            promise = Promise(
                self.env,
                handler_type.promise_type(),
                label="%s#%d" % (port_id, seq),
            )
        self._pending[seq] = _PendingCall(
            seq, kind, promise, OutcomeCodec.for_type(handler_type), entry
        )
        self._buffer.append(entry)
        if tracer is not None:
            tracer.emit(
                "stream.call_buffered",
                stream=self.trace_label,
                incarnation=self.incarnation,
                seq=seq,
                port=port_id,
                kind=kind,
                buffered=len(self._buffer),
                trace_id=span[0],
                span_id=span[1],
                parent_span_id=span[2],
                promise_id=promise.promise_id if promise is not None else None,
            )
        self.stats.calls_made += 1
        if kind == KIND_RPC:
            self.stats.rpcs_made += 1
        elif kind == KIND_SEND:
            self.stats.sends_made += 1

        if kind == KIND_RPC:
            # "RPCs and their replies are sent over the network immediately,
            # to minimize the delay for a call."
            self._flush_buffer(flush_replies=True)
        elif len(self._buffer) >= int(self._batch_limit):
            # Send when convenient: a packet handed over now would only
            # queue behind the datagram the kernel is still sending, so
            # until it is a full batch let it grow and leave when the
            # path frees (or at the buffer deadline, if that is sooner).
            if (
                len(self._buffer) >= self._hold_limit
                or (free_at := self.network.tx_free_at(self.key.src_node))
                <= self.env.now
            ):
                self._flush_buffer()
            elif not self._buffer_alarm.armed or free_at < self._buffer_alarm.deadline:
                self._buffer_alarm.arm(free_at - self.env.now)
        elif self.config.max_buffer_delay == 0.0:
            self._flush_buffer()
        else:
            self._buffer_alarm.arm_if_idle(self.config.max_buffer_delay)
        return promise

    # ------------------------------------------------------------------
    # Flush and synch
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """The paper's ``flush``: push buffered calls out now and ask the
        receiver to flush replies back."""
        self._check_usable()
        self.stats.flushes += 1
        self._flush_buffer(flush_replies=True, force=True)

    def synch(self) -> Event:
        """The paper's ``synch``: flush, then wait until every earlier call
        on the stream has completed.

        The returned event succeeds if all calls since the last synch (or
        RPC, or incarnation start) returned normally, and fails with
        :class:`~repro.core.exceptions.ExceptionReply` otherwise.
        """
        self.stats.synchs += 1
        done = Event(self.env)
        try:
            self._check_usable()
        except (Failure, Unavailable):
            done.defused = True
            done.fail(ExceptionReply())
            return done
        target = self._next_seq - 1
        if self._next_resolve > target:
            # Nothing outstanding: the synch completes without touching
            # the network.
            self._finish_synch(done, target)
            return done
        self._flush_buffer(flush_replies=True, synch_seq=target, force=True)
        if self._next_resolve > target:
            self._finish_synch(done, target)
        else:
            self._synch_waiters.append((target, done))
        return done

    def _finish_synch(self, done: Event, target: int) -> None:
        exceptional = self._synch_point(target)
        if done.triggered:
            return
        if exceptional:
            done.defused = True
            done.fail(ExceptionReply())
        else:
            done.succeed()

    def _synch_point(self, target: int) -> bool:
        """Close the synch interval at call *target* (a synch or a regular
        RPC); True if a call in it terminated exceptionally."""
        exceptional = any(
            self._synch_base < seq <= target for seq in self._exceptional_seqs
        )
        self._synch_base = max(self._synch_base, target)
        self._exceptional_seqs = {
            seq for seq in self._exceptional_seqs if seq > self._synch_base
        }
        return exceptional

    # ------------------------------------------------------------------
    # Restart
    # ------------------------------------------------------------------
    def restart(self) -> None:
        """The paper's ``restart``: break now (if not already broken) and
        reincarnate so the stream is usable again."""
        self._do_break("stream restarted by sender", permanent=False)
        self._reincarnate()

    def _reincarnate(self) -> None:
        announce = self._had_outstanding_at_break
        self.incarnation += 1
        self.broken = False
        self._break_exception = None
        self._reset_incarnation_state()
        if announce:
            # Best-effort announcement of the new incarnation, so the
            # receiver supersedes its old state and destroys any orphaned
            # executions of the broken incarnation (§4.2).
            self._had_outstanding_at_break = False
            self._transmit([], False, None)

    # ------------------------------------------------------------------
    # Adaptive controllers (batch size, RTT/RTO)
    # ------------------------------------------------------------------
    def _grow_batch(self) -> None:
        """AIMD additive increase: one more call per cleanly-acked packet."""
        ceiling = float(max(self.config.max_batch_size, self.config.batch_size))
        if self._batch_limit < ceiling:
            self._batch_limit = min(ceiling, self._batch_limit + 1.0)
            self._trace_batch_limit()

    def _shrink_batch(self) -> None:
        """AIMD multiplicative decrease, on retransmission or break."""
        self._hold_limit = 0  # loss seen: AIMD alone sizes packets from here
        floor = float(min(self.config.min_batch_size, self.config.batch_size))
        shrunk = max(floor, self._batch_limit / 2.0)
        if shrunk != self._batch_limit:
            self._batch_limit = shrunk
            self._trace_batch_limit()

    def _trace_batch_limit(self) -> None:
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.batch_limit",
                stream=self.trace_label,
                limit=int(self._batch_limit),
            )

    def _current_rto(self) -> float:
        """The retransmission timeout in force right now."""
        config = self.config
        if self._srtt is None:
            base = config.rto
        else:
            # Jacobson: SRTT + 4·RTTVAR, plus ack_delay grace because the
            # receiver may legitimately sit on a pure ack that long.
            base = self._srtt + max(4.0 * self._rttvar, 1e-3) + config.ack_delay
        base = min(max(base, config.min_rto), config.max_rto)
        return min(base * self._rto_backoff, config.max_rto)

    def _rtt_sample(self, sample: float) -> None:
        self.stats.rtt_samples += 1
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar += 0.25 * (abs(self._srtt - sample) - self._rttvar)
            self._srtt += 0.125 * (sample - self._srtt)
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.rtt_sample",
                stream=self.trace_label,
                sample=sample,
                srtt=self._srtt,
                rttvar=self._rttvar,
                rto=self._current_rto(),
            )

    # ------------------------------------------------------------------
    # Internal: transmission
    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        # A wounded process (termination pending, delayed by a critical
        # section) "cannot make any remote calls at such a point" (§4.2).
        if is_wounded(self.env.active_process):
            raise Unavailable("process is wounded; remote calls are refused")
        if self.broken:
            exc = self._break_exception or Unavailable("stream is broken")
            raise type(exc)(*exc.args)

    def _inflight(self) -> int:
        """Transmitted calls whose outcome is not yet resolved here."""
        return self._sent_seq - (self._next_resolve - 1)

    def _window_allowance(self) -> int:
        """How many more calls may enter flight.

        The flight is bounded by our own ``max_inflight_calls`` and the
        cap the receiver advertises.  That bounds receiver memory without
        any backlog report: calls and ``ack_reply_seq`` travel in the same
        packet and the receiver prunes before it delivers, so after the
        delivered packet with the highest seq *h*, sent when *R* calls
        were resolved, it holds (executing + reply log + out-of-order)
        only seqs in (R, h] — at most the cap, under loss, duplication
        and reordering alike.
        """
        limit = self.config.max_inflight_calls
        cap = limit if self._window is None else min(limit, self._window)
        inflight = self._inflight()
        if inflight <= 0:
            # Never let a zero advertisement wedge an idle stream: one
            # probe may always fly.
            return max(1, cap)
        return cap - inflight

    def _flush_buffer(
        self,
        flush_replies: bool = False,
        synch_seq: Optional[int] = None,
        force: bool = False,
    ) -> None:
        self._buffer_alarm.cancel()
        if self._buffer:
            self._ready.extend(self._buffer)
            self._buffer = []
        if not self._ready and not force:
            return
        if flush_replies:
            self._pending_flush_replies = True
        if synch_seq is not None:
            if self._pending_synch_seq is None or synch_seq > self._pending_synch_seq:
                self._pending_synch_seq = synch_seq
        self._push(flush_replies, synch_seq, force)

    def _push(
        self,
        flush_replies: bool = False,
        synch_seq: Optional[int] = None,
        force: bool = False,
    ) -> None:
        """Move as much of the ready queue into flight as the window
        permits, and transmit it."""
        ready = self._ready
        allowance = self._window_allowance()
        if allowance >= len(ready):
            entries, self._ready = ready, []
        elif allowance <= 0:
            entries = []
        else:
            entries = ready[:allowance]
            del ready[:allowance]
        if self._ready:
            self._note_window_stall(len(self._ready))
        if entries:
            unacked = self._unacked
            for entry in entries:
                unacked[entry.seq] = entry
            now = self.env.now
            send_times = self._send_times
            for entry in entries:
                send_times[entry.seq] = now
            self._sent_seq = entries[-1].seq
            inflight = self._inflight()
            if inflight > self.stats.max_inflight:
                self.stats.max_inflight = inflight
        if not entries and not force:
            if self.has_outstanding():
                self._rto_alarm.arm_if_idle(self._current_rto())
            return
        if flush_replies and entries and self._ready:
            # A window-deferred backlog goes out in segments; only the
            # final segment carries the flush marking.  Intermediate
            # segments would otherwise each demand an immediate reply
            # flush at the receiver, defeating reply batching for the
            # whole burst.
            flush_replies = False
        self._transmit(entries, flush_replies, synch_seq)
        if self.has_outstanding():
            self._rto_alarm.arm_if_idle(self._current_rto())

    def _note_window_stall(self, deferred: int) -> None:
        self.stats.window_stalls += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.window_stall",
                stream=self.trace_label,
                incarnation=self.incarnation,
                inflight=self._inflight(),
                window=self._window,
                deferred=deferred,
            )

    def _transmit(
        self,
        entries: List[CallEntry],
        flush_replies: bool,
        synch_seq: Optional[int],
        attempt: int = 0,
    ) -> None:
        packet = CallPacket(
            self.key,
            self.incarnation,
            entries,
            ack_reply_seq=self._next_resolve - 1,
            flush_replies=flush_replies,
            synch_seq=synch_seq,
            attempt=attempt,
        )
        if not send_packet(self.network, packet):
            return
        self._sent_ack_reply_seq = packet.ack_reply_seq
        self.stats.packets_sent += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.packet_sent",
                stream=self.trace_label,
                incarnation=self.incarnation,
                entries=len(entries),
                attempt=attempt,
                flush_replies=flush_replies,
                # Entries are kept in seq order, so the packet covers a
                # contiguous range; the span builder uses it to date each
                # call's on-wire phase.
                seq_lo=entries[0].seq if entries else None,
                seq_hi=entries[-1].seq if entries else None,
            )

    def _has_unresolved(self) -> bool:
        return self._next_resolve < self._next_seq

    def has_outstanding(self) -> bool:
        """True while the stream has work in hand: a call not yet resolved
        here (buffered, held by the window, or in flight) or a transmitted
        call the receiver has not acknowledged."""
        return bool(self._unacked) or self._has_unresolved()

    # ------------------------------------------------------------------
    # Internal: timers
    # ------------------------------------------------------------------
    def _on_buffer_deadline(self) -> None:
        if self._buffer:
            self._flush_buffer()

    def _on_reply_ack_deadline(self) -> None:
        """Idle-stream hygiene: tell the receiver which replies we have
        resolved so it can garbage-collect its reply log."""
        if self.broken:
            return
        if self._next_resolve - 1 <= self._sent_ack_reply_seq:
            return
        if self._buffer or self._ready:
            return  # an outgoing call packet will carry the ack shortly
        self._transmit([], False, None)

    def _on_rto(self) -> None:
        if self.broken:
            return
        if not self.has_outstanding():
            return  # everything done; no need to retransmit
        self._retries += 1
        if self._retries > self.config.max_retries:
            # "It does so only if the sender or receiver crashes, or there
            # are serious communication problems."
            self._do_break("cannot communicate", permanent=False)
            if self.config.auto_restart:
                self._reincarnate()
            return
        # Selective retransmission: skip everything the receiver has
        # already reported holding out of order.
        sacked = self._sacked
        entries = [e for e in self._unacked.values() if e.seq not in sacked]
        # Back the timer off exponentially until an un-retransmitted
        # packet is acked (Karn).
        self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)
        self._resend(entries, self._retries)
        self._rto_alarm.arm(self._current_rto())

    def _resend(self, entries: List[CallEntry], attempt: int) -> None:
        """Retransmit *entries*, the unacked calls the receiver does not
        already hold (the RTO and fast retransmission share this)."""
        self.stats.retransmissions += 1
        self.stats.retransmitted_calls_avoided += len(self._unacked) - len(entries)
        # Karn: a retransmitted seq can no longer yield an unambiguous
        # RTT sample.
        send_times = self._send_times
        for entry in entries:
            send_times.pop(entry.seq, None)
        self._shrink_batch()
        # Re-assert any pending flush/synch flags (they may have been
        # lost with the original packet).
        self._transmit(
            entries,
            self._pending_flush_replies or self._has_unresolved(),
            self._pending_synch_seq,
            attempt=attempt,
        )

    # ------------------------------------------------------------------
    # Internal: reply processing
    # ------------------------------------------------------------------
    def on_reply(self, packet: ReplyPacket) -> None:
        """Process a reply packet from the receiver (called by transport)."""
        if packet.incarnation != self.incarnation or self.broken:
            return  # stale incarnation
        if packet.window is not None:
            self._window = packet.window

        # Acknowledgements: drop delivered calls, note execution progress.
        # Entries are kept in seq order, so acknowledged calls form a prefix:
        # pop from the front until we pass the cumulative ack.
        progressed = False
        unacked = self._unacked
        ack_seq = packet.ack_call_seq
        sacked = self._sacked
        send_times = self._send_times
        rtt_sent_at = None
        while unacked:
            seq = next(iter(unacked))
            if seq > ack_seq:
                break
            del unacked[seq]
            progressed = True
            if sacked:
                sacked.discard(seq)
            if send_times:
                sent_at = send_times.pop(seq, None)
                if sent_at is not None:
                    # Karn-valid sample: this seq was never retransmitted.
                    # The loop leaves the *latest* first-send time acked by
                    # this packet, the best proxy for the packet's RTT.
                    rtt_sent_at = sent_at
        if rtt_sent_at is not None:
            self._rtt_sample(self.env.now - rtt_sent_at)
        if packet.completed_seq > self._completed_seq:
            self._completed_seq = packet.completed_seq
            progressed = True

        # Selective-ack bookkeeping: note what the receiver holds beyond
        # the cumulative ack, so retransmissions can skip it.
        if packet.sack_ranges:
            for lo, hi in packet.sack_ranges:
                for seq in range(lo, hi + 1):
                    if seq in unacked:
                        sacked.add(seq)

        # Reply entries: decode outcomes.  A decode failure at the sender
        # yields failure("could not decode") for that call only (§3 step 3).
        for entry in packet.entries:
            if entry.seq < self._next_resolve or entry.seq in self._outcomes:
                continue  # duplicate
            pending = self._pending.get(entry.seq)
            if pending is None:
                continue
            try:
                outcome = pending.codec.decode(entry.outcome_bytes)
            except DecodeError as exc:
                outcome = Outcome.failure("could not decode: %s" % (exc,))
            self._outcomes[entry.seq] = outcome
            progressed = True

        if progressed:
            clean = self._retries == 0
            self._retries = 0
            # Karn, part two: keep the backed-off RTO until an ack covers a
            # packet that was never retransmitted.  Resetting on *any*
            # progress would pin the RTO below a long path's RTT forever
            # (every packet retransmitted spuriously, every sample
            # discarded as ambiguous).
            if rtt_sent_at is not None:
                self._rto_backoff = 1.0
            if clean:
                self._grow_batch()

        if packet.sack_ranges and not self.broken:
            self._consider_fast_retransmit(packet)

        self._release_in_order()

        # Restart or stop the RTO clock only now that the resolve cursor
        # has moved: decided before the release, the last reply of an
        # exchange left the alarm armed with nothing outstanding.
        if progressed and not self.broken:
            if self.has_outstanding():
                self._rto_alarm.arm(self._current_rto())
            else:
                self._rto_alarm.cancel()

        if packet.broken is not None:
            self._on_break_notice(packet.broken)
            return

        # Reply-gap fast probe: the receiver sends replies in call order,
        # so holding a decoded outcome beyond the resolve cursor — or a
        # completion watermark covering a call whose outcome never arrived
        # (the tail-loss case: the *last* reply packet dropped, nothing
        # after it to reveal the gap) — means the packet that carried the
        # missing reply was lost (or is badly reordered).  Probe at
        # attempt 1 — which makes the receiver resend its unacknowledged
        # reply log — instead of stalling every claim behind the RTO.
        # Once per stall point.
        if (
            not self.broken
            and self._has_unresolved()
            and (self._outcomes or self._next_resolve <= self._completed_seq)
            and self._reply_gap_probed != self._next_resolve
        ):
            self._reply_gap_probed = self._next_resolve
            self.stats.reply_gap_probes += 1
            self._transmit([], True, None, attempt=1)

        # Flow control pump: resolved calls left the flight; push deferred
        # entries into the freed space.
        if self._ready and not self.broken and self._window_allowance() > 0:
            self._push(self._pending_flush_replies, self._pending_synch_seq)

    def _consider_fast_retransmit(self, packet: ReplyPacket) -> None:
        """Duplicate-ack fast retransmission.

        SACK ranges with a stuck cumulative ack mean the gap between them
        was lost on the wire.  After two reply packets agree on the same
        stuck ack we resend the gap immediately instead of waiting out the
        RTO — once per stall point.
        """
        ack_seq = packet.ack_call_seq
        if ack_seq == self._dupack_seq:
            self._dupacks += 1
        else:
            self._dupack_seq = ack_seq
            self._dupacks = 1
        if self._dupacks < 2 or self._fast_resent_for == ack_seq:
            return
        top = max(hi for _lo, hi in packet.sack_ranges)
        sacked = self._sacked
        gap = [
            entry
            for seq, entry in self._unacked.items()
            if seq <= top and seq not in sacked
        ]
        if not gap:
            return
        self._fast_resent_for = ack_seq
        self.stats.fast_retransmits += 1
        self._resend(gap, max(1, self._retries))

    def _release_in_order(self) -> None:
        """Resolve promises strictly in call order (§3 step 3)."""
        while self._next_resolve < self._next_seq:
            seq = self._next_resolve
            pending = self._pending.get(seq)
            if pending is None:
                self._next_resolve += 1
                continue
            outcome = self._outcomes.pop(seq, None)
            if outcome is None:
                if seq <= self._completed_seq and pending.kind in (
                    KIND_SEND,
                    KIND_BATCH,
                ):
                    # A send (or an epoch batch frame) that completed
                    # normally: no reply data arrives, the completion
                    # watermark stands in for it.
                    outcome = Outcome.normal()
                else:
                    break
            self._resolve(pending, outcome)
            self._next_resolve += 1
        self._wake_synch_waiters()
        if self._next_resolve - 1 > self._sent_ack_reply_seq:
            # New replies resolved: make sure an acknowledgement travels
            # eventually even if no further calls are made.
            self._reply_ack_alarm.arm_if_idle(self.config.reply_ack_delay)

    def _resolve(self, pending: _PendingCall, outcome: Outcome) -> None:
        tracer = self.env.tracer
        if tracer is not None:
            span = pending.entry.span
            promise = pending.promise
            tracer.emit(
                "stream.call_resolved",
                stream=self.trace_label,
                incarnation=self.incarnation,
                seq=pending.seq,
                kind=pending.kind,
                status=outcome.condition,
                trace_id=span[0] if span is not None else None,
                span_id=span[1] if span is not None else None,
                promise_id=promise.promise_id if promise is not None else None,
            )
        if outcome.is_exceptional:
            self._exceptional_seqs.add(pending.seq)
        if pending.promise is not None and not pending.promise.ready():
            pending.promise.resolve(outcome)
        if pending.kind == KIND_RPC:
            # An RPC is a synch point: "since the last synch or regular RPC".
            self._synch_point(pending.seq)
        del self._pending[pending.seq]

    def _wake_synch_waiters(self) -> None:
        if not self._synch_waiters:
            return
        still_waiting = []
        for target, done in self._synch_waiters:
            if self._next_resolve > target:
                self._finish_synch(done, target)
            else:
                still_waiting.append((target, done))
        self._synch_waiters = still_waiting
        if self._pending_synch_seq is not None and self._next_resolve > self._pending_synch_seq:
            self._pending_synch_seq = None
        if not self._has_unresolved():
            self._pending_flush_replies = False

    # ------------------------------------------------------------------
    # Internal: breaks
    # ------------------------------------------------------------------
    def _on_break_notice(self, notice: BreakNotice) -> None:
        """The receiver broke the stream; map outstanding calls to
        exceptions and (optionally) reincarnate."""
        if notice.synchronous:
            # Calls up to after_seq are unaffected; their outcomes either
            # already arrived or never will (receiver keeps them until
            # acked), so release what we have first.
            self._release_in_order()
        self._do_break(notice.reason, permanent=notice.permanent)
        if self.config.auto_restart:
            self._reincarnate()

    def _do_break(self, reason: str, permanent: bool) -> None:
        """Break at the sender: every call whose reply has not been received
        terminates with ``unavailable`` (or ``failure`` if permanent)."""
        if self.broken and self._break_exception is not None:
            return
        self._had_outstanding_at_break = self.has_outstanding()
        self.stats.breaks += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.break",
                stream=self.trace_label,
                side="sender",
                reason=reason,
                permanent=permanent,
                outstanding=self._had_outstanding_at_break,
            )
        self._buffer_alarm.cancel()
        self._rto_alarm.cancel()
        self._reply_ack_alarm.cancel()
        # A break is the strongest congestion/loss signal there is.
        self._shrink_batch()
        template = Failure(reason) if permanent else Unavailable(reason)
        # First deliver any outcomes that did arrive, in order; then fail
        # the rest (preserving the in-order-resolution invariant).
        self._release_in_order()
        for seq in range(self._next_resolve, self._next_seq):
            pending = self._pending.get(seq)
            if pending is None:
                continue
            outcome = self._outcomes.pop(seq, None)
            if outcome is None:
                outcome = Outcome.exceptional(type(template)(*template.args))
            self._resolve(pending, outcome)
        self._next_resolve = self._next_seq
        self._buffer = []
        self._ready = []
        self._unacked.clear()
        self._sacked.clear()
        self._send_times.clear()
        self._rto_backoff = 1.0
        self.broken = True
        self._break_exception = template
        self._wake_synch_waiters()
        for target, done in self._synch_waiters:
            if not done.triggered:
                done.defused = True
                done.fail(ExceptionReply())
        self._synch_waiters = []
