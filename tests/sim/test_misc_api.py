"""Coverage for smaller kernel/net API surfaces."""

import pytest

from repro.net import HEADER_BYTES, Message, Network
from repro.sim import Event, Timeout


def test_event_trigger_copies_outcome(env):
    source = Event(env)
    target = Event(env)
    source.succeed("payload")
    target.trigger(source)
    assert target.triggered
    assert target.value == "payload"


def test_event_trigger_copies_failure(env):
    source = Event(env)
    target = Event(env)
    source.defused = True
    source.fail(ValueError("x"))
    target.defused = True
    target.trigger(source)
    assert not target.ok


def test_event_repr_states(env):
    event = Event(env)
    assert "untriggered" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
    env.run()
    assert "processed" in repr(event)


def test_timeout_repr_and_delay(env):
    timer = env.timeout(2.5)
    assert timer.delay == 2.5
    assert "2.5" in repr(timer)


def test_timeout_negative_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1)






def test_active_process_is_none_outside_processes(env):
    assert env.active_process is None

    def proc(env):
        assert env.active_process is not None
        yield env.timeout(0.1)

    env.run(until=env.process(proc(env)))
    assert env.active_process is None


def test_process_repr_and_target(env):
    def named(env):
        yield env.timeout(5.0)

    process = env.process(named(env))
    assert "named" in repr(process)
    env.run(until=1.0)
    assert isinstance(process.target, Timeout)
    env.run()
    assert process.target is None


def test_network_transmission_time(env):
    infinite = Network(env, bandwidth=float("inf"))
    message = Message("a", "b", "x", None, 100)
    assert infinite.transmission_time(message) == 0.0
    finite = Network(env, bandwidth=50.0)
    assert finite.transmission_time(message) == (100 + HEADER_BYTES) / 50.0


def test_node_unregister(env):
    network = Network(env)
    node = network.add_node("n")
    node.register("addr", lambda m: None)
    node.unregister("addr")
    node.register("addr", lambda m: None)  # re-registration now allowed


def test_node_crash_idempotent_and_listener(env):
    network = Network(env)
    node = network.add_node("n")
    crashes = []
    node.on_crash(lambda n: crashes.append(n.name))
    node.crash()
    node.crash()  # no second notification
    assert crashes == ["n"]
    node.recover()
    node.recover()  # idempotent
    assert node.incarnation == 1


def test_network_stats_repr(env):
    network = Network(env)
    assert "messages_sent=0" in repr(network.stats)


def test_nodes_listing(env):
    network = Network(env)
    network.add_node("a")
    network.add_node("b")
    assert {node.name for node in network.nodes()} == {"a", "b"}
