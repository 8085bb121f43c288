"""Per-stream sequencing and cross-stream concurrency (§2.1).

These are the mailer-guardian claims: one client's calls on a stream run
in order; different clients' (or different agents') calls overlap.
"""


from repro.apps import build_mailer
from repro.core import Signal
from repro.entities import ArgusSystem
from repro.types import INT, HandlerType


def test_same_stream_calls_execute_in_order():
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    mailer = build_mailer(system, handler_cost=1.0)
    client = system.create_guardian("client")

    def main(ctx):
        send_mail = ctx.lookup("mailer", "send_mail")
        for index in range(4):
            send_mail.stream_statement("alice", "msg%d" % index)
        yield send_mail.synch()
        return list(mailer.state["mail"]["alice"])

    process = client.spawn(main)
    assert system.run(until=process) == ["msg0", "msg1", "msg2", "msg3"]
    # Sequential execution: never more than one call at a time.
    assert mailer.state["max_concurrent"] == 1


def test_different_clients_overlap():
    """C1's and C2's calls are on different streams and may run
    concurrently."""
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    mailer = build_mailer(system, handler_cost=5.0)
    c1 = system.create_guardian("c1")
    c2 = system.create_guardian("c2")

    def client_main(ctx):
        send_mail = ctx.lookup("mailer", "send_mail")
        yield send_mail.call(ctx.guardian.name == "c1" and "alice" or "bob", "hi")

    p1 = c1.spawn(client_main)
    p2 = c2.spawn(client_main)
    system.run(until=p1)
    system.run(until=p2)
    assert mailer.state["max_concurrent"] == 2


def test_same_client_different_agents_overlap():
    """'Calls made by different agents to ports in the same group are
    sent on different streams.'"""
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    mailer = build_mailer(system, handler_cost=5.0)
    client = system.create_guardian("client")

    def main(ctx):
        sibling = ctx.spawn_context("other-activity")
        a = ctx.lookup("mailer", "send_mail")
        b = sibling.lookup("mailer", "send_mail")
        a.stream_statement("alice", "from-a")
        b.stream_statement("bob", "from-b")
        yield a.synch()
        yield b.synch()

    process = client.spawn(main)
    system.run(until=process)
    assert mailer.state["max_concurrent"] == 2


def test_mailer_session_example():
    """The full §2.1 scenario, with observable interleaving."""
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    mailer = build_mailer(system, handler_cost=2.0)
    c1 = system.create_guardian("c1")
    c2 = system.create_guardian("c2")

    def c1_main(ctx):
        send_mail = ctx.lookup("mailer", "send_mail")
        read_mail = ctx.lookup("mailer", "read_mail")
        send_mail.stream_statement("alice", "hello")
        # read_mail on the SAME stream waits for send_mail to complete.
        messages = yield read_mail.call("alice")
        return messages

    def c2_main(ctx):
        read_mail = ctx.lookup("mailer", "read_mail")
        messages = yield read_mail.call("bob")
        return messages

    p1 = c1.spawn(c1_main)
    p2 = c2.spawn(c2_main)
    system.run(until=p1)
    system.run(until=p2)
    assert p1.value == ["hello"]  # sequencing: the send happened first
    assert p2.value == []


def test_no_such_user_signal():
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    build_mailer(system)
    client = system.create_guardian("client")

    def main(ctx):
        read_mail = ctx.lookup("mailer", "read_mail")
        try:
            yield read_mail.call("mallory")
            return "normal"
        except Signal as sig:
            return sig.condition

    process = client.spawn(main)
    assert system.run(until=process) == "no_such_user"


def test_streams_to_different_groups_are_independent():
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    guardian = system.create_guardian("g")
    guardian.state["log"] = []

    def slow(ctx, x):
        yield ctx.compute(10.0)
        ctx.guardian.state["log"].append(("slow", x))
        return x

    def fast(ctx, x):
        yield ctx.compute(0.1)
        ctx.guardian.state["log"].append(("fast", x))
        return x

    echo_type = HandlerType(args=[INT], returns=[INT])
    guardian.create_handler("slow", echo_type, slow, group="g1")
    guardian.create_handler("fast", echo_type, fast, group="g2")
    client = system.create_guardian("client")

    def main(ctx):
        slow_ref = ctx.lookup("g", "slow")
        fast_ref = ctx.lookup("g", "fast")
        p_slow = slow_ref.stream(1)
        p_fast = fast_ref.stream(2)
        slow_ref.flush()
        fast_ref.flush()
        yield p_fast.claim()
        # Fast (different group/stream) finished while slow still runs.
        assert not p_slow.ready()
        yield p_slow.claim()

    process = client.spawn(main)
    system.run(until=process)
    assert guardian.state["log"] == [("fast", 2), ("slow", 1)]
