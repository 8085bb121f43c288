"""Integration checklist: the §3 stream-call semantics, end to end.

Each test corresponds to a numbered step or quoted sentence of the paper's
semantics for ``x: pt := stream h(3)`` and friends, exercised through the
full stack (client guardian → network → server guardian → back).
"""

import pytest

from repro.core import ExceptionReply, Failure, Signal
from repro.entities import ArgusSystem
from repro.lang import run_source
from repro.streams import StreamConfig
from repro.types import INT, STRING, HandlerType

from ..conftest import run_client


def build(**kwargs):
    defaults = dict(latency=1.0, kernel_overhead=0.1)
    defaults.update(kwargs)
    system = ArgusSystem(**defaults)
    server = system.create_guardian("server")
    server.state["log"] = []

    def work(ctx, x):
        yield ctx.compute(0.2)
        ctx.guardian.state["log"].append(x)
        if x < 0:
            raise Signal("neg", "input was negative")
        return x + 1

    server.create_handler(
        "work",
        HandlerType(args=[INT], returns=[INT], signals={"neg": [STRING]}),
        work,
    )
    return system, server


def test_step1_encode_failure_no_promise_created():
    """Step 1: 'If encoding fails ... the call fails and signals the
    appropriate exception.  In this case no promise object is created.'"""
    system, server = build()

    def main(ctx):
        work = ctx.lookup("server", "work")
        with pytest.raises(Failure):
            work.stream(3.14159)  # reals do not encode as ints
        yield ctx.sleep(0)
        return "no promise"

    assert run_client(system, main) == "no promise"


def test_step2_promise_blocked_caller_continues():
    """Step 2: 'a promise object is created in the blocked state and
    returned to the caller, allowing the caller to continue.'"""
    system, server = build()

    def main(ctx):
        work = ctx.lookup("server", "work")
        before = ctx.now
        promise = work.stream(1)
        assert ctx.now == before  # no waiting happened
        assert not promise.ready()
        yield promise.claim()

    run_client(system, main)


def test_step3_reply_resolves_in_order_after_earlier_promises():
    """Step 3: '...after all promises for earlier calls on the stream are
    in the ready state, the reply message is decoded and the promise is
    changed to the ready state.'"""
    system, server = build()

    def main(ctx):
        work = ctx.lookup("server", "work")
        promises = [work.stream(index) for index in range(5)]
        work.flush()
        yield promises[2].claim()
        assert all(promise.ready() for promise in promises[:3])
        for promise in promises:
            yield promise.claim()

    run_client(system, main)


def test_step4_break_resolves_promise_with_unavailable():
    """Step 4: on a break the system resolves the promise with, e.g.,
    unavailable("could not communicate")."""
    config = StreamConfig(rto=5.0, max_retries=1, max_buffer_delay=0.5)
    system, server = build(stream_config=config)
    system.network.partition("node:client", "node:server")

    def main(ctx):
        work = ctx.lookup("server", "work")
        promise = work.stream(1)
        work.flush()
        outcome = yield promise.wait()
        return outcome.condition

    assert run_client(system, main) == "unavailable"


def test_statement_form_still_executes_call():
    """'the result of the call is still decoded as described above and
    then discarded.'"""
    system, server = build()

    def main(ctx):
        work = ctx.lookup("server", "work")
        work.stream_statement(7)
        yield work.synch()

    run_client(system, main)
    assert server.state["log"] == [7]


def test_full_exception_vocabulary_reaches_claimer():
    system, server = build()

    def main(ctx):
        work = ctx.lookup("server", "work")
        p_ok = work.stream(1)
        p_sig = work.stream(-1)
        work.flush()
        results = []
        results.append((yield p_ok.claim()))
        try:
            yield p_sig.claim()
        except Signal as sig:
            results.append((sig.condition, sig.exception_args()))
        try:
            yield work.synch()
        except ExceptionReply:
            results.append("exception_reply")
        return results

    assert run_client(system, main) == [
        2,
        ("neg", ("input was negative",)),
        "exception_reply",
    ]


def test_claim_semantics_quote():
    """'The claim operation waits until the promise is ready.  Then it
    returns normally if the call terminated normally, and otherwise it
    signals the appropriate exception.'"""
    system, server = build()

    def main(ctx):
        work = ctx.lookup("server", "work")
        promise = work.stream(10)
        work.flush()
        value = yield promise.claim()  # waits, then returns normally
        assert value == 11
        again = yield promise.claim()  # same outcome each time
        assert again == 11
        return promise.claim_count

    assert run_client(system, main) == 2


def test_dsl_program_against_python_guardians_shape():
    """The DSL grades program produces exactly the Figure 3-1 output."""
    source = """
    sinfo = record [ stu: string, grade: int ]
    info = array [ sinfo ]
    pt = promise returns (real)
    averages = array [ pt ]

    guardian grades_db is
      handler record_grade (stu: string, grade: int) returns (real)
        sleep(0.2)
        return (float(grade))
      end
    end

    guardian printer is
      handler print (line: string)
        sleep(0.1)
        return ()
      end
    end

    program main
      grades: info := #[
        sinfo${stu: "amy", grade: 90},
        sinfo${stu: "bob", grade: 80}
      ]
      a: averages := averages$new()
      for s: sinfo in grades do
        averages$addh(a, stream grades_db.record_grade(s.stu, s.grade))
      end
      flush grades_db.record_grade
      output: string := ""
      i: int := 0
      while i < averages$len(a) do
        output := output + make_string(grades[i].stu, pt$claim(a[i])) + ";"
        i := i + 1
      end
      return (output)
    end
    """
    result, system = run_source(source, latency=1.0, kernel_overhead=0.1)
    assert result == "amy 90;bob 80;"


def test_many_clients_one_server_isolation():
    """Streams from different clients never interfere."""
    system, server = build()
    clients = [system.create_guardian("c%d" % index) for index in range(4)]

    def client_main(ctx, base):
        work = ctx.lookup("server", "work")
        promises = [work.stream(base + index) for index in range(5)]
        work.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values

    processes = [
        client.spawn(client_main, index * 100) for index, client in enumerate(clients)
    ]
    for process in processes:
        system.run(until=process)
    for index, process in enumerate(processes):
        assert process.value == [index * 100 + offset + 1 for offset in range(5)]
    # All 20 calls executed exactly once.
    assert len(server.state["log"]) == 20
