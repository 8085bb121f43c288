"""Explicit send/receive message passing: the Plits/*MOD baseline (§5).

    "The send/receive approach can allow programs to achieve high
     throughput, but it leads to complex and ill-structured programs.
     The difficulty is that to obtain the efficiency benefits of
     streaming, it is necessary to have many 'calls' in progress at a
     time, and it is entirely the responsibility of the user code to
     relate reply messages with the calls that caused them."

This module gives user code raw mailboxes over the simulated network plus
a :class:`PairingTable` that *counts* the reply-matching bookkeeping the
user is forced to write — the quantity benchmark E8 reports alongside
throughput.  Manual batching (several logical messages per datagram) is
supported so the baseline can genuinely match stream throughput.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Tuple

from repro.net.message import Message
from repro.net.network import Network, Node
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.sim.sync import BlockingQueue

__all__ = ["Mailbox", "PairingTable", "DatagramBatch"]

_conversation_ids = itertools.count(1)


class DatagramBatch:
    """Several logical messages manually packed into one datagram.

    ``entries`` are ``(conversation_id, payload, size)`` triples; the user
    code at the receiver unpacks them itself.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: List[Tuple[int, Any, int]]) -> None:
        self.entries = list(entries)

    @property
    def size(self) -> int:
        return 16 + sum(16 + size for _cid, _payload, size in self.entries)


class Mailbox:
    """A raw receive queue at a network address.

    ``receive()`` is yieldable and delivers whatever datagram arrives next
    — it is the *user's* job to figure out what the datagram answers.
    """

    def __init__(self, env: Environment, network: Network, node: Node, address: str) -> None:
        self.env = env
        self.network = network
        self.node = node
        self.address = address
        self._inbox = BlockingQueue(env)
        node.register(address, self._on_message)

    def _on_message(self, message: Message) -> None:
        self._inbox.put(message.payload)

    def send(self, dst_node: str, dst_address: str, payload: Any, size: int) -> None:
        """Fire one datagram; the sender 'need wait only until the message
        is produced'."""
        self.network.send(Message(self.node.name, dst_node, dst_address, payload, size))

    def send_batch(self, dst_node: str, dst_address: str, batch: DatagramBatch) -> None:
        """Manually batched send (how send/receive programs get
        stream-like throughput)."""
        self.network.send(
            Message(self.node.name, dst_node, dst_address, batch, batch.size)
        )

    def receive(self) -> Event:
        """Yieldable: the next arrived payload, in arrival order."""
        return self._inbox.get()

    def pending(self) -> int:
        """Datagrams waiting to be received."""
        return len(self._inbox)


class PairingTable:
    """The user-maintained table matching replies to requests.

    Every ``expect``/``match`` is one unit of the bookkeeping burden that
    promises eliminate; benchmark E8 reports ``operations``.
    """

    def __init__(self) -> None:
        self._waiting: Dict[int, Any] = {}
        #: Total pairing operations user code had to perform.
        self.operations = 0
        #: Replies that matched nothing (bugs the structure invites).
        self.unmatched = 0

    def new_conversation(self, context: Any = None) -> int:
        """Register an outstanding request; returns its conversation id."""
        conversation_id = next(_conversation_ids)
        self._waiting[conversation_id] = context
        self.operations += 1
        return conversation_id

    def match(self, conversation_id: int) -> Any:
        """Pair an incoming reply with its request; returns the context."""
        self.operations += 1
        try:
            return self._waiting.pop(conversation_id)
        except KeyError:
            self.unmatched += 1
            raise

    @property
    def outstanding(self) -> int:
        return len(self._waiting)
