"""Tunable parameters of the call-stream transport.

These knobs are the levers the benchmarks sweep: ``batch_size`` and
``max_buffer_delay`` control the buffering the paper's throughput argument
rests on; ``rto``/``max_retries`` control break detection; the reply-side
twins control reply batching at the receiver.

Since PR 5 the transport defaults to the *adaptive windowed* mode:

* **selective retransmission** — the receiver reports out-of-order
  arrivals as SACK ranges and the sender resends only the genuinely
  missing calls (instead of the whole unacknowledged go-back-N tail);
* **flow control** — the sender never keeps more than
  ``max_inflight_calls`` calls transmitted but unresolved, against the
  cap the receiver advertises (its own ``max_inflight_calls``), which
  bounds the receiver's executing + reply-log + out-of-order holdings;
  ``0`` disables the window;
* **self-tuning batching** — an AIMD controller grows the effective batch
  size from ``batch_size`` toward ``max_batch_size`` while acks flow
  cleanly and halves it on retransmissions and breaks, and the receiver
  sizes its reply batches to the call packets it sees;
* **adaptive RTO** — Jacobson SRTT/RTTVAR estimation (with exponential
  backoff) replaces the fixed ``rto``, which remains the pre-sample
  initial value.

:meth:`StreamConfig.legacy` restores the original fixed-function
transport (fixed batch, go-back-N, fixed RTO, no window) — the
paper-replication benchmarks E1/E3 and the golden-trace/wire-count pins
run under it, bit-identical to the pre-PR-5 tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["StreamConfig"]


@dataclass(frozen=True)
class StreamConfig:
    """Configuration shared by the sending and receiving stream machinery."""

    #: Transmit the call buffer as soon as it holds this many entries.
    #: Under adaptive batching this is the *initial* batch size; the AIMD
    #: controller tunes the effective threshold between
    #: ``min_batch_size`` and ``max_batch_size`` at runtime.
    batch_size: int = 8
    #: Transmit a non-empty call buffer at latest this long after its first
    #: entry arrived ("sent when convenient").
    max_buffer_delay: float = 5.0
    #: Retransmission timeout for unacknowledged calls.  With
    #: ``adaptive_rto`` this is only the initial value used until the
    #: first RTT sample lands.
    rto: float = 20.0
    #: Consecutive retransmissions tolerated before the sender breaks the
    #: stream ("the system tries hard to deliver messages before breaking").
    max_retries: int = 4
    #: Receiver-side: transmit the reply buffer at this many entries.
    #: Under adaptive batching this is the *floor* of the reply batch:
    #: the trigger follows the size of the sender's first-transmission
    #: call packets, up to ``max_batch_size``.
    reply_batch_size: int = 8
    #: Receiver-side: transmit a non-empty reply buffer at latest this long
    #: after its first entry arrived.
    reply_max_delay: float = 5.0
    #: Receiver-side: send a bare acknowledgement if calls have gone this
    #: long without any reply traffic to piggyback on (a flushed call
    #: whose handler is still running is acknowledged by its reply, or by
    #: this timer if the handler outlasts it).
    ack_delay: float = 10.0
    #: Sender-side: after replies are resolved, send a bare
    #: acknowledgement packet at latest this long after the last outgoing
    #: traffic, so the receiver can garbage-collect its reply log even on
    #: an otherwise idle stream.
    reply_ack_delay: float = 15.0
    #: Reincarnate the stream automatically after a break ("broken streams
    #: are mapped into exceptions and then restarted automatically").
    auto_restart: bool = True

    # -- adaptive windowed transport (PR 5) ----------------------------
    #: Receiver reports out-of-order arrivals as SACK ranges; the sender
    #: retransmits only the calls not covered by them.  Off = go-back-N.
    selective_retransmit: bool = True
    #: AIMD control of the effective batch size (additive increase by one
    #: per clean ack packet, halving on retransmission/break).
    adaptive_batching: bool = True
    #: AIMD ceiling for the effective batch size.  A configured
    #: ``batch_size`` above the ceiling widens the range instead of
    #: erroring: the effective ceiling is ``max(batch_size,
    #: max_batch_size)`` and the floor ``min(batch_size, min_batch_size)``.
    max_batch_size: int = 64
    #: AIMD floor for the effective batch size.
    min_batch_size: int = 1
    #: Jacobson SRTT/RTTVAR estimation drives the retransmission timeout
    #: (plus ``ack_delay`` grace for receiver-side ack batching and
    #: exponential backoff across consecutive timeouts).
    adaptive_rto: bool = True
    #: Clamp for the adaptive RTO.
    min_rto: float = 2.0
    max_rto: float = 60.0
    #: Flow-control window: the most calls the sender keeps in flight
    #: (transmitted, outcome not yet resolved), enforced by the sender
    #: against the cap the receiver advertises — the receiver's own value
    #: of this field.  ``0`` disables flow control entirely (the legacy
    #: unbounded behaviour).
    max_inflight_calls: int = 256

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.reply_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.max_buffer_delay < 0 or self.reply_max_delay < 0:
            raise ValueError("buffer delays must be >= 0")
        if self.rto <= 0:
            raise ValueError("rto must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.ack_delay <= 0:
            raise ValueError("ack_delay must be positive")
        if self.reply_ack_delay <= 0:
            raise ValueError("reply_ack_delay must be positive")
        if self.min_batch_size < 1:
            raise ValueError("min_batch_size must be >= 1")
        if self.max_batch_size < self.min_batch_size:
            raise ValueError("max_batch_size must be >= min_batch_size")
        if self.min_rto <= 0:
            raise ValueError("min_rto must be positive")
        if self.max_rto < self.min_rto:
            raise ValueError("max_rto must be >= min_rto")
        if self.max_inflight_calls < 0:
            raise ValueError("max_inflight_calls must be >= 0 (0 disables)")

    @classmethod
    def legacy(cls, **overrides) -> "StreamConfig":
        """The pre-PR-5 fixed-function transport.

        Fixed ``batch_size``, go-back-N retransmission, fixed ``rto`` and
        no flow-control window — bit-identical to the original design.
        The paper-replication pins (E1/E3 wire counts, the golden trace,
        the chaos seed corpus) run under this mode.
        """
        fields = dict(
            selective_retransmit=False,
            adaptive_batching=False,
            adaptive_rto=False,
            max_inflight_calls=0,
        )
        fields.update(overrides)
        return cls(**fields)

    def unbuffered(self) -> "StreamConfig":
        """A copy that transmits every call and reply immediately.

        This is the RPC-like configuration used as the baseline in E1: each
        call pays its own kernel call and transmission delay.  Adaptive
        batching is pinned off — the whole point of this mode is that the
        batch never grows past one call.
        """
        return replace(
            self,
            batch_size=1,
            max_buffer_delay=0.0,
            reply_batch_size=1,
            reply_max_delay=0.0,
            adaptive_batching=False,
        )
