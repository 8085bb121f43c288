"""Tunable parameters of the call-stream transport.

These knobs are the levers the benchmarks sweep: ``batch_size`` and
``max_buffer_delay`` control the buffering the paper's throughput argument
rests on; ``rto``/``max_retries`` control break detection; the reply-side
twins control reply batching at the receiver.

The transport they tune (DESIGN.md §11) is windowed and self-tuning:

* **selective retransmission** — the receiver reports out-of-order
  arrivals as SACK ranges and the sender resends only the genuinely
  missing calls;
* **flow control** — the sender never keeps more than
  ``max_inflight_calls`` calls transmitted but unresolved, against the
  cap the receiver advertises (its own ``max_inflight_calls``), which
  bounds the receiver's executing + reply-log + out-of-order holdings;
* **self-tuning batching** — an AIMD controller moves the effective batch
  size between ``min_batch_size`` and ``max_batch_size``, starting at
  ``batch_size``: up while acks flow cleanly, halved on retransmissions
  and breaks; the receiver sizes its reply batches to the call packets
  it sees;
* **adaptive RTO** — Jacobson SRTT/RTTVAR estimation with exponential
  backoff, clamped to ``[min_rto, max_rto]``; ``rto`` is the pre-sample
  initial value.

Each controller is pinned by a degenerate range: ``min_rto == max_rto ==
rto`` is a fixed retransmission ladder, ``min_batch_size == batch_size ==
max_batch_size`` a fixed batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["StreamConfig"]


@dataclass(frozen=True)
class StreamConfig:
    """Configuration shared by the sending and receiving stream machinery."""

    #: Transmit the call buffer as soon as it holds this many entries.
    #: This is the *initial* batch size; the AIMD controller tunes the
    #: effective threshold between ``min_batch_size`` and
    #: ``max_batch_size`` at runtime.  On a burst it is when the *first*
    #: packet leaves: while the node's kernel is still sending that one,
    #: later packets are held and grow (see ``max_batch_size``).
    batch_size: int = 8
    #: Transmit a non-empty call buffer at latest this long after its first
    #: entry arrived ("sent when convenient").
    max_buffer_delay: float = 5.0
    #: Retransmission timeout for unacknowledged calls: the initial
    #: value, used until the first RTT sample lands.
    rto: float = 20.0
    #: Consecutive retransmissions tolerated before the sender breaks the
    #: stream ("the system tries hard to deliver messages before breaking").
    max_retries: int = 4
    #: Receiver-side: transmit the reply buffer at this many entries.
    #: This is the *floor* of the reply batch: the trigger follows the
    #: size of the sender's first-transmission call packets, up to
    #: ``max_batch_size``.
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

    #: AIMD ceiling for the effective batch size (additive increase by
    #: one per clean ack packet, halving on retransmission/break).  A
    #: configured ``batch_size`` outside the range widens it instead of
    #: erroring: the effective ceiling is ``max(batch_size,
    #: max_batch_size)`` and the floor ``min(batch_size, min_batch_size)``.
    #: The ceiling also bounds a *held* packet: one whose count trigger
    #: fired while the kernel was busy with an earlier datagram waits for
    #: the path to free, or until it is this full (until the first loss
    #: signal; then AIMD alone sizes packets).
    max_batch_size: int = 64
    #: AIMD floor for the effective batch size.
    min_batch_size: int = 1
    #: Clamp for the retransmission timeout, which follows a Jacobson
    #: SRTT/RTTVAR estimate (plus ``ack_delay`` grace for receiver-side
    #: ack batching and exponential backoff across consecutive timeouts).
    min_rto: float = 2.0
    max_rto: float = 60.0
    #: Flow-control window: the most calls the sender keeps in flight
    #: (transmitted, outcome not yet resolved), enforced by the sender
    #: against the cap the receiver advertises — the receiver's own value
    #: of this field.
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
        if self.max_inflight_calls < 1:
            raise ValueError("max_inflight_calls must be >= 1")

    def unbuffered(self) -> "StreamConfig":
        """A copy that transmits every call and reply immediately.

        This is the RPC-like configuration used as the baseline in E1: each
        call pays its own kernel call and transmission delay.  The batch
        range is pinned to one call — the whole point of this mode is
        that the batch never grows past it.
        """
        return replace(
            self,
            batch_size=1,
            max_buffer_delay=0.0,
            reply_batch_size=1,
            reply_max_delay=0.0,
            min_batch_size=1,
            max_batch_size=1,
        )
