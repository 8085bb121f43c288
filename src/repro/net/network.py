"""The simulated network: nodes, links, cost model, delivery.

Substitutes for the real network under Mercury call-streams (DESIGN.md §2).
The model charges three costs per physical message, matching the overheads
the paper says buffering amortizes:

* ``kernel_overhead`` — fixed cost paid by the *sender's CPU* for each
  datagram (the "overhead of kernel calls");
* transmission time — ``wire_bytes / bandwidth``, also occupying the sender;
* ``latency`` — propagation delay in flight (plus optional jitter).

Delivery between a pair of nodes is FIFO (jitter never reorders a link);
loss, partitions and node crashes make the network *unreliable*, so the
stream transport above it must implement acknowledgements, retransmission
and deduplication to provide the exactly-once ordered semantics of §2.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.net.message import Message
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

__all__ = ["Network", "Node", "NetworkStats", "NodeDown"]

_INF = float("inf")

#: Delivery callbacks receive the message; registered per (node, address).
DeliveryHandler = Callable[[Message], None]


class NodeDown(Exception):
    """An operation was attempted on a crashed node."""


class NetworkStats:
    """Counters for benchmark reporting.

    Slotted: the send path bumps several counters per message, and slot
    access is measurably cheaper than instance-dict access there.
    """

    __slots__ = (
        "messages_sent",
        "messages_delivered",
        "messages_dropped_loss",
        "messages_dropped_partition",
        "messages_dropped_crash",
        "messages_dropped_chaos",
        "messages_duplicated",
        "bytes_sent",
        "kernel_calls",
    )

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped_loss = 0
        self.messages_dropped_partition = 0
        self.messages_dropped_crash = 0
        self.messages_dropped_chaos = 0
        self.messages_duplicated = 0
        self.bytes_sent = 0
        self.kernel_calls = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return "NetworkStats(%s)" % ", ".join(
            "%s=%d" % kv for kv in sorted(self.snapshot().items())
        )


class Node:
    """A network node; guardians (entities) live entirely on one node."""

    def __init__(self, network: "NodeTable", name: str) -> None:
        self.network = network
        self.name = name
        self.alive = True
        #: Incarnation increments on every recovery.  The network stamps
        #: each datagram with the destination incarnation it was sent to
        #: and refuses to deliver across a recovery — a crash resets the
        #: "connection", so pre-crash traffic (including chaos-duplicated
        #: copies) can never replay into the next incarnation.
        self.incarnation = 0
        self._handlers: Dict[str, DeliveryHandler] = {}
        self._crash_listeners: list = []

    def __repr__(self) -> str:
        return "<Node %s %s>" % (self.name, "up" if self.alive else "DOWN")

    def register(self, address: str, handler: DeliveryHandler) -> None:
        """Attach a delivery handler for datagrams addressed to *address*."""
        if address in self._handlers:
            raise ValueError("address %r already registered on %s" % (address, self))
        self._handlers[address] = handler

    def unregister(self, address: str) -> None:
        """Remove the delivery handler at *address* (idempotent)."""
        self._handlers.pop(address, None)

    def on_crash(self, listener: Callable[["Node"], None]) -> None:
        """Register a callback run when this node crashes."""
        self._crash_listeners.append(listener)

    def crash(self) -> None:
        """Take the node down; in-flight messages to it will be dropped."""
        if not self.alive:
            return
        self.alive = False
        tracer = self.network.env.tracer
        if tracer is not None:
            tracer.emit("node.crash", node=self.name, incarnation=self.incarnation)
        # A crashed NIC loses its queue: the node's pre-crash send/receive
        # backlog and link FIFO history must not constrain the traffic of
        # its next incarnation.
        self.network._forget_node_clocks(self.name)
        for listener in list(self._crash_listeners):
            listener(self)

    def recover(self) -> None:
        """Bring the node back up with a new incarnation."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        tracer = self.network.env.tracer
        if tracer is not None:
            tracer.emit("node.recover", node=self.name, incarnation=self.incarnation)

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.address)
        if handler is not None:
            handler(message)
        # Datagrams to unknown addresses are silently dropped, like UDP.


class NodeTable:
    """A network's node table and its same-node delivery.

    Both carriers extend it: the simulated :class:`Network` and the
    real-socket :class:`~repro.rt.transport.TcpNetwork`.  A subclass
    supplies ``send`` and ``tx_free_at`` for traffic between nodes.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.stats = NetworkStats()
        self._nodes: Dict[str, Node] = {}

    def add_node(self, name: str) -> Node:
        """Create a node named *name* (unique)."""
        if name in self._nodes:
            raise ValueError("node %r already exists" % (name,))
        node = Node(self, name)
        self._nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """The node named *name* (KeyError if absent)."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError("no node named %r" % (name,)) from None

    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, in creation order."""
        return tuple(self._nodes.values())

    def _finish_local(self, message: Message, dst: Node) -> None:
        # Same-node messages skip the network: no kernel call, no latency,
        # delivered on the next simulation tick.
        if dst.alive:
            self.stats.messages_delivered += 1
            tracer = self.env.tracer
            if tracer is not None:
                tracer.emit(
                    "message.delivered",
                    src=message.src,
                    dst=message.dst,
                    local=True,
                    latency=self.env.now - message.send_time,
                )
            dst._deliver(message)

    def _forget_node_clocks(self, name: str) -> None:
        """Crash hook from :class:`Node`: drop the per-node clocks that a
        carrier keeps (none here)."""


class Network(NodeTable):
    """The simulated carrier: the link cost and fault model."""

    def __init__(
        self,
        env: Environment,
        latency: float = 1.0,
        bandwidth: float = float("inf"),
        kernel_overhead: float = 0.1,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        if latency < 0 or kernel_overhead < 0 or jitter < 0:
            raise ValueError("latency, kernel_overhead and jitter must be >= 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1), got %r" % (loss_rate,))
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        super().__init__(env)
        self.latency = latency
        self.bandwidth = bandwidth
        self.kernel_overhead = kernel_overhead
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.rng = rng or RngRegistry(0)
        #: Optional per-message chaos (drop/delay/dup/reorder); see
        #: :class:`repro.net.faults.LinkFaultInjector`.  None keeps the
        #: send path bit-identical to the fault-free simulator.
        self.link_faults = None
        self._partitions: Set[Tuple[str, str]] = set()
        self._link_clock: Dict[Tuple[str, str], float] = {}
        # Per-node "NIC" serialization: kernel calls and transmissions on one
        # node happen one at a time, so per-message overhead is a genuine
        # throughput limit that batching amortizes (paper §2).
        self._nic_free: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    @staticmethod
    def _pair(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def partition(self, a: str, b: str) -> None:
        """Sever communication between nodes *a* and *b* (both ways)."""
        self._partitions.add(self._pair(a, b))
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("net.partition", a=a, b=b)

    def heal(self, a: str, b: str) -> None:
        """Restore communication between nodes *a* and *b*."""
        self._partitions.discard(self._pair(a, b))
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("net.heal", a=a, b=b)

    def partitioned(self, a: str, b: str) -> bool:
        """Whether *a* and *b* currently cannot communicate."""
        return self._pair(a, b) in self._partitions

    # ------------------------------------------------------------------
    # Link-level chaos
    # ------------------------------------------------------------------
    def install_link_faults(self, injector) -> None:
        """Attach a :class:`~repro.net.faults.LinkFaultInjector` (or None).

        Every subsequent remote message consults it once: the message may
        be dropped, held up (FIFO-preserving congestion), rerouted past the
        FIFO clamp (reordering) or duplicated.  Passing ``None`` restores
        the undisturbed network.
        """
        self.link_faults = injector

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def transmission_time(self, message: Message) -> float:
        """Wire time for *message* at the configured bandwidth."""
        if self.bandwidth == float("inf"):
            return 0.0
        return message.wire_bytes / self.bandwidth

    def tx_free_at(self, node: str) -> float:
        """When *node*'s kernel finishes the datagrams already handed to it
        (at or before ``env.now`` when idle): a :meth:`send` now would only
        queue until then."""
        return self._nic_free.get(node, 0.0)

    def send(self, message: Message) -> None:
        """Hand *message* to the sender's kernel and return at once; ask
        :meth:`tx_free_at` when the sender's CPU is free again (after
        kernel overhead + transmission time).

        Local sends (src == dst) skip the network entirely: no kernel call,
        no latency — mirroring how Argus optimizes same-guardian calls.

        The body open-codes :meth:`transmission_time`, the NIC max and the
        drop checks — this is the hottest non-kernel path in the simulator
        (DESIGN.md §8).
        """
        src_name = message.src
        dst_name = message.dst
        nodes = self._nodes
        src = nodes.get(src_name)
        if src is None:
            self.node(src_name)  # raises the canonical KeyError
        if not src.alive:
            raise NodeDown("cannot send from crashed node %r" % (src_name,))
        env = self.env
        now = env._now
        message.send_time = now

        if src_name == dst_name:
            # Delivered on the next simulation tick, no generator frame.
            env.call_soon(self._finish_local, message, src)
            return

        wire_bytes = message.wire_bytes
        stats = self.stats
        stats.messages_sent += 1
        stats.kernel_calls += 1
        stats.bytes_sent += wire_bytes
        tracer = env.tracer
        if tracer is not None:
            tracer.emit(
                "message.sent",
                src=src_name,
                dst=dst_name,
                address=message.address,
                bytes=wire_bytes,
                payload=type(message.payload).__name__,
            )
        bandwidth = self.bandwidth
        busy = self.kernel_overhead
        if bandwidth != _INF:
            busy += wire_bytes / bandwidth
        # The sending NIC handles one message at a time: this message's
        # kernel call starts only once earlier ones are done.
        nic = self._nic_free
        free = nic.get(src_name)
        if free is None or free < now:
            send_done = now + busy
        else:
            send_done = free + busy
        nic[src_name] = send_done

        # Drop checks, in this order (it decides which counter a drop
        # lands in and whether the loss RNG is drawn): partition, unknown
        # destination, random loss.
        partitions = self._partitions
        if partitions and (
            ((src_name, dst_name) if src_name <= dst_name else (dst_name, src_name))
            in partitions
        ):
            stats.messages_dropped_partition += 1
            self._trace_drop(message, "partition")
        elif (dst := nodes.get(dst_name)) is None:
            stats.messages_dropped_crash += 1
            self._trace_drop(message, "no_such_node")
        else:
            loss_rate = self.loss_rate
            if loss_rate > 0.0 and self.rng.stream("net.loss").random() < loss_rate:
                stats.messages_dropped_loss += 1
                self._trace_drop(message, "loss")
            else:
                # Stamp the destination incarnation: a datagram addressed
                # to this incarnation dies with it (crash = NIC reset), so
                # late copies can never reach the recovered node.
                message.dst_incarnation = dst.incarnation
                faults = self.link_faults
                if faults is None:
                    # Fast path: exactly one FIFO delivery.
                    flight = self.latency
                    if self.jitter:
                        flight += self.rng.stream("net.jitter").uniform(
                            0.0, self.jitter
                        )
                    arrival = send_done + flight
                    # FIFO per directed link: never deliver before an
                    # earlier message.
                    link = (src_name, dst_name)
                    clock = self._link_clock
                    prev = clock.get(link)
                    if prev is not None and prev > arrival:
                        arrival = prev
                    clock[link] = arrival
                    # The receiving side pays a kernel call too, serialized
                    # on its own NIC — but only after the message arrives.
                    env.call_at(arrival, self._arrive, message, dst)
                else:
                    self._send_with_faults(message, dst, send_done, faults)

    def _send_with_faults(
        self, message: Message, dst: "Node", send_done: float, faults
    ) -> None:
        """Chaos-enabled delivery: the injector may drop, delay, duplicate
        or reorder; each resulting copy is delivered independently."""
        env = self.env
        deliveries = ((0.0, True),)
        decision = faults.decide(message.src, message.dst)
        if decision is not None:
            if decision is faults.DROP:
                self.stats.messages_dropped_chaos += 1
                self._trace_drop(message, "chaos")
                deliveries = ()
            else:
                deliveries = decision
                if len(deliveries) > 1:
                    self.stats.messages_duplicated += len(deliveries) - 1
        for extra_delay, fifo in deliveries:
            flight = self.latency + extra_delay
            if self.jitter:
                flight += self.rng.stream("net.jitter").uniform(0.0, self.jitter)
            arrival = send_done + flight
            if fifo:
                # FIFO per directed link: never deliver before an earlier
                # message.  Chaos-reordered copies and stray duplicates
                # skip the clamp (and leave the clock alone): they took an
                # independent slow path.
                link = (message.src, message.dst)
                arrival = max(arrival, self._link_clock.get(link, 0.0))
                self._link_clock[link] = arrival
            # The receiving side pays a kernel call too, serialized on its
            # own NIC — but only after the message arrives.
            env.call_at(arrival, self._arrive, message, dst)

    def _trace_drop(self, message: Message, reason: str) -> None:
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "message.dropped",
                src=message.src,
                dst=message.dst,
                reason=reason,
            )

    # ------------------------------------------------------------------
    # Delivery (scheduled callbacks — no generator processes; see
    # DESIGN.md §8)
    # ------------------------------------------------------------------
    def _arrive(self, message: Message, dst: Node) -> None:
        # Re-check conditions at arrival time: a partition or crash that
        # happened while the message was in flight still eats it.
        partitions = self._partitions
        if partitions:
            src_name = message.src
            dst_name = message.dst
            pair = (
                (src_name, dst_name) if src_name <= dst_name else (dst_name, src_name)
            )
            if pair in partitions:
                self.stats.messages_dropped_partition += 1
                self._trace_drop(message, "partition")
                return
        if not dst.alive or dst.incarnation != message.dst_incarnation:
            self.stats.messages_dropped_crash += 1
            self._trace_drop(
                message, "crash" if not dst.alive else "stale_incarnation"
            )
            return
        # Receiving kernel call, serialized on the destination NIC.
        self.stats.kernel_calls += 1
        env = self.env
        now = env._now
        nic = self._nic_free
        free = nic.get(dst.name)
        receive_start = now if free is None or free < now else free
        receive_done = receive_start + self.kernel_overhead
        nic[dst.name] = receive_done
        if receive_done > now:
            env.call_at(receive_done, self._finish_remote, message, dst)
        else:
            self._finish_remote(message, dst)

    def _finish_remote(self, message: Message, dst: Node) -> None:
        if not dst.alive or dst.incarnation != message.dst_incarnation:
            self.stats.messages_dropped_crash += 1
            self._trace_drop(
                message, "crash" if not dst.alive else "stale_incarnation"
            )
            return
        self.stats.messages_delivered += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "message.delivered",
                src=message.src,
                dst=message.dst,
                local=False,
                latency=self.env._now - message.send_time,
            )
        handler = dst._handlers.get(message.address)
        if handler is not None:
            handler(message)

    def _forget_node_clocks(self, name: str) -> None:
        """Drop *name*'s NIC backlog and link FIFO clocks (node crashed)."""
        self._nic_free.pop(name, None)
        for link in [link for link in self._link_clock if name in link]:
            del self._link_clock[link]
