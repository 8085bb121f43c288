"""Unit tests for the simulated network: cost model, FIFO, faults."""

import pytest

from repro.net import HEADER_BYTES, Message, Network, NodeDown


def make_net(env, **kwargs):
    defaults = dict(latency=1.0, kernel_overhead=0.1)
    defaults.update(kwargs)
    network = Network(env, **defaults)
    network.add_node("a")
    network.add_node("b")
    return network


def deliveries(network, node_name, address="inbox"):
    """Register a recording handler; returns the record list."""
    record = []
    network.node(node_name).register(
        address, lambda message: record.append((network.env.now, message.payload))
    )
    return record


def test_message_wire_bytes():
    message = Message("a", "b", "addr", "payload", 100)
    assert message.wire_bytes == 100 + HEADER_BYTES


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Message("a", "b", "addr", None, -1)


def test_basic_delivery_with_latency_and_overheads(env):
    network = make_net(env)
    record = deliveries(network, "b")
    network.send(Message("a", "b", "inbox", "hi", 0))
    env.run()
    # send kernel call 0.1 + latency 1.0 + receive kernel call 0.1
    assert record == [(pytest.approx(1.2), "hi")]


def test_local_delivery_skips_network(env):
    network = make_net(env)
    record = deliveries(network, "a")
    network.send(Message("a", "a", "inbox", "local", 1000))
    env.run()
    assert record == [(0.0, "local")]
    assert network.stats.kernel_calls == 0
    assert network.stats.messages_sent == 0


def test_bandwidth_adds_transmission_time(env):
    network = make_net(env, bandwidth=100.0)  # bytes per time unit
    record = deliveries(network, "b")
    network.send(Message("a", "b", "inbox", "big", 100 - HEADER_BYTES))
    env.run()
    # 0.1 overhead + 100/100 transmission + 1.0 latency + 0.1 receive
    assert record[0][0] == pytest.approx(2.2)


def test_fifo_per_link_even_with_jitter(env):
    network = make_net(env, jitter=5.0)
    record = deliveries(network, "b")
    for index in range(10):
        network.send(Message("a", "b", "inbox", index, 0))
    env.run()
    assert [payload for _t, payload in record] == list(range(10))


def test_sender_nic_serializes_kernel_calls(env):
    network = make_net(env, kernel_overhead=1.0, latency=0.0)
    record = deliveries(network, "b")
    for index in range(3):
        network.send(Message("a", "b", "inbox", index, 0))
    env.run()
    # Each send occupies the NIC for 1.0; receives serialize similarly.
    send_done = [1.0, 2.0, 3.0]
    arrivals = [t for t, _p in record]
    assert arrivals == [pytest.approx(t + 1.0) for t in send_done]


def test_send_busy_event_fires_after_overhead(env):
    network = make_net(env, kernel_overhead=0.5)
    network.send(Message("a", "b", "inbox", None, 0))
    assert network.tx_free_at("a") == 0.5


def test_send_from_crashed_node_rejected(env):
    network = make_net(env)
    network.node("a").crash()
    with pytest.raises(NodeDown):
        network.send(Message("a", "b", "inbox", None, 0))


def test_crashed_destination_drops_message(env):
    network = make_net(env)
    record = deliveries(network, "b")
    network.node("b").crash()
    network.send(Message("a", "b", "inbox", "lost", 0))
    env.run()
    assert record == []
    assert network.stats.messages_dropped_crash == 1


def test_crash_during_flight_drops_message(env):
    network = make_net(env, latency=10.0)
    record = deliveries(network, "b")
    network.send(Message("a", "b", "inbox", "lost", 0))

    def crasher(env):
        yield env.timeout(5.0)
        network.node("b").crash()

    env.process(crasher(env))
    env.run()
    assert record == []
    assert network.stats.messages_dropped_crash == 1


def test_recovery_increments_incarnation(env):
    network = make_net(env)
    node = network.node("b")
    assert node.incarnation == 0
    node.crash()
    node.recover()
    assert node.alive
    assert node.incarnation == 1


def test_partition_blocks_both_ways(env):
    network = make_net(env)
    record_a = deliveries(network, "a")
    record_b = deliveries(network, "b")
    network.partition("a", "b")
    network.send(Message("a", "b", "inbox", 1, 0))
    network.send(Message("b", "a", "inbox", 2, 0))
    env.run()
    assert record_a == [] and record_b == []
    assert network.stats.messages_dropped_partition == 2


def test_heal_restores_delivery(env):
    network = make_net(env)
    record = deliveries(network, "b")
    network.partition("a", "b")
    network.heal("a", "b")
    network.send(Message("a", "b", "inbox", "ok", 0))
    env.run()
    assert [payload for _t, payload in record] == ["ok"]


def test_loss_rate_drops_messages(env):
    network = make_net(env, loss_rate=0.5)
    record = deliveries(network, "b")
    for index in range(200):
        network.send(Message("a", "b", "inbox", index, 0))
    env.run()
    dropped = network.stats.messages_dropped_loss
    assert 0 < dropped < 200
    assert len(record) == 200 - dropped


def test_unknown_address_dropped_silently(env):
    network = make_net(env)
    network.send(Message("a", "b", "nowhere", "void", 0))
    env.run()  # no exception


def test_duplicate_node_rejected(env):
    network = make_net(env)
    with pytest.raises(ValueError):
        network.add_node("a")


def test_unknown_node_lookup(env):
    network = make_net(env)
    with pytest.raises(KeyError):
        network.node("zzz")


def test_duplicate_address_registration_rejected(env):
    network = make_net(env)
    node = network.node("a")
    node.register("x", lambda m: None)
    with pytest.raises(ValueError):
        node.register("x", lambda m: None)


def test_stats_counters(env):
    network = make_net(env)
    deliveries(network, "b")
    network.send(Message("a", "b", "inbox", None, 36))
    env.run()
    stats = network.stats.snapshot()
    assert stats["messages_sent"] == 1
    assert stats["messages_delivered"] == 1
    assert stats["bytes_sent"] == 36 + HEADER_BYTES
    assert stats["kernel_calls"] == 2  # one send, one receive


def test_invalid_parameters_rejected(env):
    with pytest.raises(ValueError):
        Network(env, latency=-1)
    with pytest.raises(ValueError):
        Network(env, loss_rate=1.5)
    with pytest.raises(ValueError):
        Network(env, bandwidth=0)
