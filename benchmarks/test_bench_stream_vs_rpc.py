"""E1 — stream calls vs RPC: buffering amortizes per-message overhead.

Paper claim (§2): "There are two reasons for using stream calls instead of
RPCs: they allow the caller to run in parallel with the sending and
processing of the call, and they reduce the cost of transmitting the call
and reply messages. ...  Buffering allows us to amortize the overhead of
kernel calls and the transmission delays for messages over several calls,
especially for small calls and replies."

Reproduced series: completion time and physical-message count for n small
calls, RPC vs stream, sweeping n; plus the batch-size ablation from
DESIGN.md §5.
"""

from repro.entities import ArgusSystem
from repro.streams import StreamConfig
from repro.types import INT, HandlerType

from .conftest import report

ECHO = HandlerType(args=[INT], returns=[INT])

LATENCY = 5.0
KERNEL_OVERHEAD = 0.5
HANDLER_COST = 0.05


def build_system(stream_config):
    system = ArgusSystem(
        latency=LATENCY, kernel_overhead=KERNEL_OVERHEAD, stream_config=stream_config
    )
    server = system.create_guardian("server")

    def echo(ctx, x):
        yield ctx.compute(HANDLER_COST)
        return x

    server.create_handler("echo", ECHO, echo)
    return system


def run_rpc(n_calls):
    system = build_system(StreamConfig().unbuffered())

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        for index in range(n_calls):
            yield echo.call(index)

    process = system.create_guardian("client").spawn(main)
    system.run(until=process)
    return system.now, system.stats()["messages_sent"]


def run_stream(n_calls, batch_size=16, config=None):
    if config is None:
        config = StreamConfig(
            batch_size=batch_size,
            reply_batch_size=batch_size,
            max_buffer_delay=2.0,
            reply_max_delay=2.0,
        )
    system = build_system(config)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(index) for index in range(n_calls)]
        echo.flush()
        for promise in promises:
            yield promise.claim()

    process = system.create_guardian("client").spawn(main)
    system.run(until=process)
    return system.now, system.stats()["messages_sent"]


def test_e1_stream_vs_rpc(benchmark):
    rows = []
    for n_calls in (1, 4, 16, 64, 256):
        rpc_time, rpc_messages = run_rpc(n_calls)
        stream_time, stream_messages = run_stream(n_calls)
        rows.append(
            (
                n_calls,
                rpc_time,
                stream_time,
                rpc_time / stream_time,
                rpc_messages,
                stream_messages,
            )
        )
    report(
        "E1",
        "RPC vs stream calls (simulated completion time, messages)",
        ["n_calls", "rpc_time", "stream_time", "speedup", "rpc_msgs", "stream_msgs"],
        rows,
    )

    # Shape: streams win, increasingly with n; messages collapse by ~batch.
    by_n = {row[0]: row for row in rows}
    assert by_n[64][3] > 40.0, "streams should beat RPC by >40x at n=64"
    speedups = [row[3] for row in rows]
    assert speedups == sorted(speedups), "the advantage should grow with n"
    assert all(row[4] == 2 * row[0] for row in rows), "an RPC is two datagrams"
    # A burst leaves in full batches, not in batch_size pieces.
    assert by_n[256][5] < by_n[256][4] / 32, "batching should slash message count"
    # At n=1 there is nothing to amortize: times are comparable.
    assert by_n[1][1] == by_n[1][2] or abs(by_n[1][1] - by_n[1][2]) < 3 * LATENCY

    benchmark(run_stream, 64)


def test_e1_ablation_batch_size(benchmark):
    """DESIGN.md §5 ablation: sweep the buffer size at fixed n.

    Each row pins the batch (``min_batch_size == batch_size ==
    max_batch_size``), which switches off both AIMD and the
    hold-while-busy rule: left open, a bursting caller's packets grow to
    a full batch whatever ``batch_size`` says and every row reads alike.
    The last row is the default, self-sized transport.
    """
    n_calls = 128
    rows = []
    for batch_size in (1, 2, 4, 8, 16, 32, 64):
        pinned = StreamConfig(
            batch_size=batch_size,
            min_batch_size=batch_size,
            max_batch_size=batch_size,
            reply_batch_size=batch_size,
            max_buffer_delay=2.0,
            reply_max_delay=2.0,
        )
        duration, messages = run_stream(n_calls, config=pinned)
        rows.append((batch_size, duration, messages))
    untuned_time, untuned_messages = run_stream(n_calls, config=StreamConfig())
    report(
        "E1b",
        "batch-size ablation at n=%d" % n_calls,
        ["batch_size", "time", "messages"],
        rows + [("default", untuned_time, untuned_messages)],
    )
    times = [row[1] for row in rows]
    assert times == sorted(times, reverse=True), "time falls as the batch grows"
    assert times[0] > 7 * times[-1], "unbatched costs >7x the best batch"
    messages = [row[2] for row in rows]
    assert messages == sorted(messages, reverse=True), "messages fall with batch size"
    # Untuned, the transport reaches the best pinned row.
    assert untuned_time <= 1.01 * times[-1]
    assert untuned_messages <= messages[-1]

    benchmark(run_stream, n_calls, 32)
