"""Two OS processes, one promise pipeline, real TCP (DESIGN.md §14).

Spawns an echo guardian in a worker process via ``repro.rt.RtCluster``,
then drives it from this process over actual sockets: a blocking RPC, a
pipelined batch of stream calls, and a ``when_fulfilled`` continuation
— the same Stream API the simulator examples use, now against the
wallclock backend.

Run with::

    PYTHONPATH=src python examples/rt_echo.py
"""

from __future__ import annotations

import sys

from repro.rt import RtCluster
from repro.types.signatures import INT, HandlerType

ECHO_T = HandlerType(args=[INT], returns=[INT])


def setup_server(host) -> None:
    """Build the server world; runs inside the spawned worker process."""
    guardian = host.create_guardian("server")

    def echo_impl(ctx, n):
        return 2 * n
        yield  # marks the handler as a generator

    guardian.create_handler("echo", ECHO_T, echo_impl)


def client_main(ctx):
    echo = ctx.lookup("server", "echo")

    # A blocking RPC: one round trip over TCP.
    doubled = yield echo.call(21)
    print("rpc        : echo(21) = %d" % doubled)

    # Pipelined stream calls: issued ahead, claimed later; the transport
    # batches them into frames and the window keeps them in flight.
    promises = [echo.stream(i) for i in range(10)]
    echo.flush()
    values = []
    for promise in promises:
        value = yield promise.claim()
        values.append(value)
    print("streams    : %s" % values)

    # A continuation: derive before the result exists, claim after.
    derived = echo.stream(100).when_fulfilled(lambda v: v + 1)
    chained = yield derived.claim()
    print("continuation: 2*100 + 1 = %d" % chained)

    return sum(values) + doubled + chained


def main() -> int:
    cluster = RtCluster({"node:server": setup_server})
    cluster.start()
    try:
        host = cluster.client_host()
        host.declare("server", "echo", ECHO_T, node="node:server")
        client = host.create_guardian("client")
        proc = client.spawn(client_main)
        total = host.run(until=proc, timeout=30.0)
        print("total      : %d" % total)
        stats = host.stats()
        print(
            "client sent %d message(s) in %d byte(s) over real TCP"
            % (stats["messages_sent"], stats["bytes_sent"])
        )
        host.shutdown()
    finally:
        cluster.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
