"""Queue mechanics of the vat's callback lane.

The FIFO/turn semantics are covered by test_vat.py; these tests target
the queue itself: a large burst, a flood enqueued from inside a drain,
the abort-resume path when a callback raises mid-drain, and the span
carried per entry.
"""

import pytest

from repro.concurrency.vat import vat_of
from repro.sim import Environment

#: Larger than any small fixed buffer a queue might start with.
BURST = 131


def test_burst_past_initial_capacity_preserves_fifo():
    env = Environment()
    vat = vat_of(env)
    n = BURST
    ran = []
    for index in range(n):
        vat.do_soon(ran.append, index)
    assert vat.pending() == n
    env.run()
    assert ran == list(range(n))
    assert vat.pending() == 0


def test_grow_from_inside_a_drain_preserves_fifo():
    env = Environment()
    vat = vat_of(env)
    ran = []

    def fanout(tag):
        ran.append(tag)
        if tag == 0:
            # Flood the queue while the drain loop is running.
            for index in range(BURST):
                vat.do_soon(ran.append, ("child", index))

    vat.do_soon(fanout, 0)
    vat.do_soon(ran.append, 1)
    env.run()
    assert ran[:2] == [0, 1]
    assert ran[2:] == [("child", index) for index in range(BURST)]
    # The whole cascade settled in a single turn (documented guarantee).
    assert vat.turns == 1


def test_exception_consumes_entry_and_resumes_remainder():
    env = Environment()
    vat = vat_of(env)
    ran = []

    def boom(_):
        raise RuntimeError("boom")

    vat.do_soon(ran.append, "a")
    vat.do_soon(boom, None)
    vat.do_soon(ran.append, "b")
    vat.do_soon(ran.append, "c")
    with pytest.raises(RuntimeError):
        env.run()
    # popleft-then-call: the failing entry is consumed, the rest run in a
    # fresh turn at the same timestamp.
    assert vat.pending() == 2
    env.run()
    assert ran == ["a", "b", "c"]
    assert vat.pending() == 0
    assert vat.turns == 2


def test_span_context_is_set_per_callback_and_reset():
    env = Environment()
    vat = vat_of(env)
    seen = []
    vat.do_soon(lambda _: seen.append(vat.current_span), None, span=(1, 2, 3))
    vat.do_soon(lambda _: seen.append(vat.current_span), None)
    env.run()
    assert seen == [(1, 2, 3), None]
    assert vat.current_span is None
