"""Send/receive baseline (§5)."""

import pytest

from repro.baselines import DatagramBatch, Mailbox, PairingTable
from repro.net import Network


def build_mailbox_pair(env, **kwargs):
    defaults = dict(latency=1.0, kernel_overhead=0.1)
    defaults.update(kwargs)
    network = Network(env, **defaults)
    a = network.add_node("a")
    b = network.add_node("b")
    return (
        Mailbox(env, network, a, "mbox:a"),
        Mailbox(env, network, b, "mbox:b"),
        network,
    )


def test_mailbox_send_receive(env):
    box_a, box_b, _network = build_mailbox_pair(env)

    def receiver(env):
        payload = yield box_b.receive()
        return payload

    process = env.process(receiver(env))
    box_a.send("b", "mbox:b", {"hello": True}, 32)
    assert env.run(until=process) == {"hello": True}


def test_mailbox_receive_blocks(env):
    box_a, box_b, _network = build_mailbox_pair(env)
    arrival = []

    def receiver(env):
        yield box_b.receive()
        arrival.append(env.now)

    def sender(env):
        yield env.timeout(5.0)
        box_a.send("b", "mbox:b", "late", 8)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert arrival and arrival[0] > 5.0


def test_user_code_must_pair_replies(env):
    """The §5 complaint: with many calls in flight, user code must
    match replies to requests itself."""
    box_client, box_server, _network = build_mailbox_pair(env)
    pairing = PairingTable()

    def server(env):
        for _ in range(3):
            request = yield box_server.receive()
            conversation_id, value = request
            box_server.send("a", "mbox:a", (conversation_id, value * 2), 16)

    def client(env):
        for value in (10, 20, 30):
            conversation_id = pairing.new_conversation(context=value)
            box_client.send("b", "mbox:b", (conversation_id, value), 16)
        results = {}
        for _ in range(3):
            conversation_id, doubled = yield box_client.receive()
            original = pairing.match(conversation_id)
            results[original] = doubled
        return results

    env.process(server(env))
    process = env.process(client(env))
    assert env.run(until=process) == {10: 20, 20: 40, 30: 60}
    assert pairing.operations == 6  # 3 expects + 3 matches: the burden
    assert pairing.outstanding == 0


def test_unmatched_reply_detected(env):
    pairing = PairingTable()
    with pytest.raises(KeyError):
        pairing.match(9999)
    assert pairing.unmatched == 1


def test_batched_datagrams_reduce_message_count(env):
    box_a, box_b, network = build_mailbox_pair(env)
    got = []

    def receiver(env):
        batch = yield box_b.receive()
        got.extend(payload for _cid, payload, _size in batch.entries)

    process = env.process(receiver(env))
    batch = DatagramBatch([(i, "msg%d" % i, 8) for i in range(10)])
    box_a.send_batch("b", "mbox:b", batch)
    env.run(until=process)
    assert got == ["msg%d" % i for i in range(10)]
    assert network.stats.messages_sent == 1


def test_batch_size_accounts_entries(env):
    batch = DatagramBatch([(1, None, 100), (2, None, 50)])
    assert batch.size == 16 + (16 + 100) + (16 + 50)
