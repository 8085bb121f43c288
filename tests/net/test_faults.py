"""Unit tests for scheduled fault injection."""

import pytest

from repro.net import FaultPlan, Message, Network, schedule_crash, schedule_partition


@pytest.fixture
def network(env):
    network = Network(env, latency=0.0, kernel_overhead=0.0)
    network.add_node("a")
    network.add_node("b")
    return network


def test_schedule_crash_and_recover(env, network):
    schedule_crash(network, "b", at=5.0, recover_at=8.0)
    env.run(until=6.0)
    assert not network.node("b").alive
    env.run(until=9.0)
    assert network.node("b").alive
    assert network.node("b").incarnation == 1


def test_schedule_crash_without_recovery(env, network):
    schedule_crash(network, "b", at=2.0)
    env.run()
    assert not network.node("b").alive


def test_recover_before_crash_rejected(env, network):
    with pytest.raises(ValueError):
        schedule_crash(network, "b", at=5.0, recover_at=5.0)


def test_schedule_partition_and_heal(env, network):
    schedule_partition(network, "a", "b", at=1.0, heal_at=3.0)
    env.run(until=2.0)
    assert network.partitioned("a", "b")
    env.run(until=4.0)
    assert not network.partitioned("a", "b")


def test_heal_before_partition_rejected(env, network):
    with pytest.raises(ValueError):
        schedule_partition(network, "a", "b", at=3.0, heal_at=3.0)


def test_fault_plan_applies_everything(env, network):
    plan = FaultPlan()
    plan.crash("b", at=2.0, recover_at=4.0).partition("a", "b", at=1.0, heal_at=5.0)
    assert len(plan) == 2
    plan.apply(network)
    env.run(until=2.5)
    assert not network.node("b").alive
    assert network.partitioned("a", "b")
    env.run(until=6.0)
    assert network.node("b").alive
    assert not network.partitioned("a", "b")


def test_schedule_crash_unknown_node_rejected_eagerly(env, network):
    with pytest.raises(ValueError, match="no node named 'ghost'"):
        schedule_crash(network, "ghost", at=5.0)
    # Nothing was installed: the calendar stays empty.
    assert env.queued_event_count() == 0


def test_schedule_partition_unknown_node_rejected_eagerly(env, network):
    with pytest.raises(ValueError, match="no node named 'ghost'"):
        schedule_partition(network, "a", "ghost", at=1.0)
    assert env.queued_event_count() == 0


def test_fault_plan_validates_before_installing_anything(env, network):
    plan = FaultPlan()
    plan.crash("b", at=2.0).partition("a", "ghost", at=1.0)
    with pytest.raises(ValueError, match="ghost"):
        plan.apply(network)
    # The valid crash must not have been half-installed.
    assert env.queued_event_count() == 0
    env.run()
    assert network.node("b").alive


def test_fault_plan_error_names_known_nodes(env, network):
    with pytest.raises(ValueError, match="known: a, b"):
        schedule_crash(network, "nope", at=1.0)


def test_crash_kills_inflight_messages(env, network):
    received = []
    network.node("b").register("inbox", lambda m: received.append(m.payload))
    slow = Network(env, latency=10.0, kernel_overhead=0.0)
    # Use the shared env but the configured network for sending.
    network.latency = 10.0
    network.send(Message("a", "b", "inbox", "doomed", 0))
    schedule_crash(network, "b", at=5.0)
    env.run()
    assert received == []
