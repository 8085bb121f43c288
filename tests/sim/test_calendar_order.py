"""Differential test of the calendar's ordering contract.

:class:`~repro.sim.kernel.Environment` promises to fire entries in
``(time, priority, insertion order)`` order whatever mix of entry points
put them there.  ``HeapCalendar`` below *is* that sentence — one ``heapq``
of ``(time, priority, seq)`` keys — and hypothesis plays random programs
on both: every insert path, alarms armed / cancelled / re-armed earlier
and later, inserts made from inside a callback at the current timestamp
(URGENT included), callbacks that raise mid-lane, and ``run()`` /
``run(until=t)`` / ``peek()`` interleavings.  The two logs must be equal.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Alarm, Environment
from repro.sim.events import Event
from repro.sim.kernel import NORMAL, URGENT, Infinity


class HeapCalendar:
    """The reference: the calendar surface over one global heap."""

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._seq = 0

    def _push(self, when, priority, head, payload):
        assert when >= self._now
        self._seq += 1
        heappush(self._heap, (when, priority, self._seq, head, payload))

    def schedule(self, event, delay=0.0, priority=NORMAL):
        self._push(self._now + delay, priority, None, event)

    def call_at(self, when, fn, *args):
        self._push(when, NORMAL, fn, args)

    def call_in(self, delay, fn, *args):
        self._push(self._now + delay, NORMAL, fn, args)

    def call_soon(self, fn, *args):
        self._push(self._now, NORMAL, fn, args)

    def peek(self):
        return self._heap[0][0] if self._heap else Infinity

    def queued_event_count(self):
        return len(self._heap)

    def run(self, until=None):
        limit = Infinity if until is None else until
        while self._heap and self._heap[0][0] <= limit:
            self._now, _, _, head, payload = heappop(self._heap)
            if head is None:
                payload._fire(self)
            else:
                head(*payload)
        if until is not None:
            self._now = max(self._now, limit)


class Boom(Exception):
    pass


class Player:
    """Interprets one program against one calendar and keeps the log."""

    def __init__(self, env):
        self.env = env
        self.log = []
        self.labels = 0
        self.alarms = [
            Alarm(env, lambda index=index: self.log.append(("alarm", index, env._now)))
            for index in range(2)
        ]

    def fired(self, label, actions):
        self.log.append((label, self.env._now))
        for action in actions:
            self.do(action)

    def do(self, op):
        env = self.env
        kind = op[0]
        if kind == "raise":
            raise Boom()
        if kind == "arm":
            self.alarms[op[1]].arm(op[2])
        elif kind == "cancel":
            self.alarms[op[1]].cancel()
        else:
            self.labels += 1
            label, actions = self.labels, op[-1]
            if kind == "schedule":
                event = Event(env)
                event._ok, event._value = True, None
                event.callbacks.append(lambda _event: self.fired(label, actions))
                env.schedule(event, op[1], op[2])
            elif kind == "call_at":
                env.call_at(env._now + op[1], self.fired, label, actions)
            elif kind == "call_in":
                env.call_in(op[1], self.fired, label, actions)
            else:
                env.call_soon(self.fired, label, actions)

    def drive(self, op):
        env = self.env
        try:
            if op[0] == "run":
                env.run()
            elif op[0] == "run_until":
                env.run(env._now + op[1])
            else:
                self.do(op)
        except Boom:
            self.log.append("boom")
        self.log.append((op[0], env._now, env.peek(), env.queued_event_count()))

    def play(self, program):
        for op in program:
            self.drive(op)
        for _ in range(1000):  # every run consumes at least one entry
            if not self.env.queued_event_count():
                return self.log
            self.drive(("run",))
        raise AssertionError("the calendar does not drain")


DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.5])
ALARM_OPS = st.one_of(
    st.tuples(st.just("arm"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 1)),
)


def inserts(actions):
    return st.one_of(
        st.tuples(st.just("schedule"), DELAYS, st.sampled_from([NORMAL, URGENT]), actions),
        st.tuples(st.just("call_at"), DELAYS, actions),
        st.tuples(st.just("call_in"), DELAYS, actions),
        st.tuples(st.just("call_soon"), actions),
    )


# What a fired callback does: nothing, or a few inserts / alarm ops of its
# own (two levels deep), possibly ending in a raise.
LEAF = st.lists(st.one_of(ALARM_OPS, st.just(("raise",))), max_size=2)
ACTIONS = st.lists(
    st.one_of(inserts(LEAF), inserts(st.just([])), ALARM_OPS, st.just(("raise",))),
    max_size=4,
)
DRIVER_OPS = st.one_of(
    inserts(ACTIONS),
    inserts(st.just([])),
    ALARM_OPS,
    st.just(("run",)),
    st.tuples(st.just("run_until"), DELAYS),
)


@settings(max_examples=300, deadline=None)
@given(program=st.lists(DRIVER_OPS, max_size=30))
def test_fire_order_matches_time_priority_seq_heap(program):
    assert Player(Environment()).play(program) == Player(HeapCalendar()).play(program)
