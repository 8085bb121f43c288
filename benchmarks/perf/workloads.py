"""The hot-path workloads measured by ``run_bench.py``.

Each workload is a plain function ``(n) -> units`` that builds a fresh
world, drives ``n`` units of simulated work to completion and returns the
unit count actually performed (so the caller can turn wall-clock seconds
into a units/sec rate and sanity-check the run did what it claims).

The "before" numbers in ``baseline_pr7.json`` were recorded by running
these same workloads against the pre-PR-7 tree (heapq kernel, per-value
struct codecs), so fresh runs are directly comparable to the committed
baseline — except ``stream_calls``, which has no "before": it now runs
the default stream transport, which that tree's numbers did not.
"""

from __future__ import annotations

from repro.encoding.transmit import ArgsCodec
from repro.entities import ArgusSystem
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.alarm import Alarm
from repro.sim.kernel import Environment
from repro.streams import StreamConfig
from repro.types import INT, REAL, STRING, ArrayOf, HandlerType, RecordOf

__all__ = [
    "kernel_events",
    "timer_wheel",
    "network_messages",
    "stream_calls",
    "codec_bytes",
    "WORKLOADS",
]

ECHO = HandlerType(args=[INT], returns=[INT])

# E1 world parameters (benchmarks/test_bench_stream_vs_rpc.py).
LATENCY = 5.0
KERNEL_OVERHEAD = 0.5
HANDLER_COST = 0.05

#: A representative record-heavy signature for the codec microbenchmark.
CODEC_TYPE = HandlerType(
    args=[INT, STRING, ArrayOf(INT), RecordOf({"name": STRING, "score": REAL})],
    returns=[ArrayOf(STRING)],
)
CODEC_ARGS = (
    7,
    "promise",
    [1, 2, 3, 4, 5, 6, 7, 8],
    {"name": "liskov", "score": 19.88},
)


def kernel_events(n: int) -> int:
    """Events/sec through the kernel's callback lane.

    Schedules and fires *n* bare ``call_at`` timers — the path every
    network delivery, retransmission timeout, alarm and vat drain takes.
    Deadlines spread over a 97-slot window so the calendar sees realistic
    churn (interleaved insert/fire) rather than one monotone drain.
    """
    env = Environment()
    fired = []
    append = fired.append
    call_at = env.call_at
    for index in range(n):
        call_at((index % 97) * 0.25, append, index)
    env.run()
    assert len(fired) == n
    return n


def timer_wheel(n: int) -> int:
    """Alarm churn: arm/re-arm/cancel over a small pool, RTO-style.

    Exercises exactly what the transport does with its retransmission
    and flush alarms: push a deadline back on every packet, cancel some,
    let a few fire as simulated time advances.  Units are alarm
    operations.
    """
    env = Environment()
    fired = [0]

    def on_fire() -> None:
        fired[0] += 1

    alarms = [Alarm(env, on_fire) for _ in range(32)]
    now_plus = 0.25
    for index in range(n):
        alarm = alarms[index & 31]
        alarm.arm(0.5 + (index % 7) * 0.25)
        if index % 5 == 3:
            alarm.cancel()
        if (index & 63) == 63:
            env.run(env.now + now_plus)
    env.run()
    assert fired[0] > 0
    return n


def network_messages(n: int) -> int:
    """Messages/sec through :class:`Network`: *n* remote datagrams a->b.

    Datagrams go out ``want_done=False``, exactly as every production
    sender in this repo issues them (stream transport, guardian RPC,
    send/receive baselines).  Sends are paced in chunks of 256 with the
    calendar drained in between, so the in-flight population stays
    bounded the way any real run's does (the NIC spaces sends 0.1 apart
    against a 1.0 latency, so genuine steady-state depth is ~11
    messages) instead of holding all *n* datagrams live at once.
    """
    env = Environment()
    network = Network(env, latency=1.0, kernel_overhead=0.1)
    network.add_node("a")
    receiver = network.add_node("b")
    delivered = []
    receiver.register("inbox", delivered.append)
    send = network.send
    index = 0
    while index < n:
        stop = index + 256
        if stop > n:
            stop = n
        while index < stop:
            send(Message("a", "b", "inbox", index, 32), want_done=False)
            index += 1
        env.run()
    assert len(delivered) == n
    return n


def stream_calls(n: int) -> int:
    """End-to-end stream calls/sec for the E1 stream-vs-RPC scenario.

    A client streams *n* echo calls (batch size 16), flushes, and claims
    every promise — the full sender/network/receiver/dispatch/reply path.
    """
    config = StreamConfig(
        batch_size=16,
        reply_batch_size=16,
        max_buffer_delay=2.0,
        reply_max_delay=2.0,
    )
    system = ArgusSystem(
        latency=LATENCY, kernel_overhead=KERNEL_OVERHEAD, stream_config=config
    )
    server = system.create_guardian("server")

    def echo(ctx, x):
        yield ctx.compute(HANDLER_COST)
        return x

    server.create_handler("echo", ECHO, echo)

    def main(ctx):
        ref = ctx.lookup("server", "echo")
        promises = [ref.stream(index) for index in range(n)]
        ref.flush()
        total = 0
        for promise in promises:
            total += yield promise.claim()
        return total, ref.stream_sender.stats.snapshot()

    process = system.create_guardian("client").spawn(main)
    total, sender_stats = system.run(until=process)
    assert total == n * (n - 1) // 2
    assert sender_stats["calls_made"] == n
    # The client buffers every call up front; the window paces them out,
    # so no retransmission distorts the wall-clock measurement.
    assert sender_stats["retransmissions"] == 0
    assert sender_stats["breaks"] == 0
    return n


def codec_bytes(n: int) -> int:
    """Bytes/sec through the args codec: encode+decode *n* round trips.

    Uses a record-heavy signature (int, string, array[int], record) so
    every branch of the value encoder is on the measured path.  Units are
    wire bytes produced (and re-consumed).
    """
    codec = ArgsCodec.for_type(CODEC_TYPE)
    args = CODEC_ARGS
    encode = codec.encode
    decode = codec.decode
    total = 0
    decoded = None
    for _ in range(n):
        data = encode(args)
        decoded = decode(data)
        total += len(data)
    assert decoded == args
    return total


#: name -> (workload, full-run n, --quick n)
WORKLOADS = {
    "kernel_events": (kernel_events, 200_000, 20_000),
    "timer_wheel": (timer_wheel, 200_000, 20_000),
    "network_messages": (network_messages, 20_000, 2_000),
    "stream_calls": (stream_calls, 20_000, 2_000),
    "codec_bytes": (codec_bytes, 100_000, 10_000),
}
