"""Execution engine for promise graphs over sharded guardians.

The runtime installs one ``graph`` port group on every shard guardian:

``exec(graph_id, epoch, batching, units)``
    runs an epoch of routine deliveries where their data lives and
    cascades the leftover subtrees — one call per downstream shard,
    shipped as a :data:`~repro.streams.wire.KIND_BATCH` entry so a normal
    epoch needs no reply beyond the completion watermark;
``exec_one(graph_id, unit) -> results``
    the naive baseline: one delivery in, fire-or-accumulate, outputs
    back — a full RPC round trip per DAG edge.

The *origin* guardian (where :meth:`GraphRuntime.submit` runs) gets a
``graph_result(graph_id, results)`` handler that resolves the
submission's promises.  ``units`` and ``results`` are the payloads of
:mod:`repro.graph.codec`; everything else is an ordinary typed argument.
The origin is not on the wire: a shard group has one runtime, and every
shard sends its results to that runtime's origin.

Execution placement: each delivery routes to the shard its scheduling
key hashes to.  A routine with a ``node_func`` recomputes the key from
its actual inputs — if that lands elsewhere, the delivery *migrates*
(the subtree re-ships instead of executing here).  Collectors route by
their static key only, so all their independent inputs meet in one
guardian's state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.exceptions import Failure, Unavailable
from repro.core.promise import Promise
from repro.graph.builder import GraphBuilder, GraphError
from repro.graph.codec import (
    Result,
    TreeNode,
    Unit,
    decode_results,
    decode_units,
    encode_results,
    encode_units,
)
from repro.graph.router import ShardRouter
from repro.types.signatures import BOOL, INT, STRING, HandlerType

__all__ = [
    "EXEC_HANDLER",
    "EXEC_ONE_HANDLER",
    "GRAPH_GROUP",
    "RESULT_HANDLER",
    "GraphRuntime",
]

GRAPH_GROUP = "graph"
EXEC_HANDLER = "exec"
EXEC_ONE_HANDLER = "exec_one"
RESULT_HANDLER = "graph_result"

#: Payloads travel as strings through the ordinary argument codecs; the
#: latin-1 bijection maps payload bytes onto code points losslessly.
_EXEC_TYPE = HandlerType(args=[INT, INT, BOOL, STRING])
_EXEC_ONE_TYPE = HandlerType(args=[INT, STRING], returns=[STRING])
_RESULT_TYPE = HandlerType(args=[INT, STRING])


def _to_wire(payload: bytes) -> str:
    return payload.decode("latin-1")


def _from_wire(text: str) -> bytes:
    return text.encode("latin-1")


def _ship(
    ctx: Any,
    src: str,
    dest: str,
    handler: str,
    head: Tuple[Any, ...],
    rows: Sequence[Any],
    encode: Callable[[Sequence[Any]], bytes],
    epoch: int,
    batching: bool,
) -> None:
    """Call ``handler(*head, payload)`` on *dest*: one ``KIND_BATCH``
    entry carrying every row, or one per row when batching is off."""
    ref = ctx.lookup(dest, handler, group=GRAPH_GROUP)
    tracer = ctx.env.tracer
    for chunk in [rows] if batching else [[row] for row in rows]:
        ref.batch(*head, _to_wire(encode(chunk)))
        if tracer is not None:
            tracer.emit("graph.epoch", shard=src, dst=dest, epoch=epoch, units=len(chunk))


class _ShardEngine:
    """Per-incoming-call execution state on one shard.

    Outgoing units and results buffer here while the call's deliveries
    run, then ship through :func:`_ship`.  Buffers are per-engine, so
    concurrently executing calls never interleave their epochs.
    """

    __slots__ = (
        "runtime",
        "ctx",
        "graph_id",
        "epoch",
        "batching",
        "rpc",
        "my_index",
        "my_name",
        "out_units",
        "out_results",
    )

    def __init__(
        self,
        runtime: "GraphRuntime",
        ctx: Any,
        graph_id: int,
        epoch: int,
        batching: bool,
        rpc: bool = False,
    ) -> None:
        self.runtime = runtime
        self.ctx = ctx
        self.graph_id = graph_id
        self.epoch = epoch
        self.batching = batching
        self.rpc = rpc
        self.my_name = ctx.guardian.name
        self.my_index = runtime.router.index_of(self.my_name)
        self.out_units: Dict[int, List[Unit]] = {}
        self.out_results: List[Result] = []

    def deliver(self, slot: int, node: TreeNode, values: Tuple[Any, ...]):
        """Route one delivery: execute here, join, or re-ship elsewhere."""
        if not self.rpc:
            dest = self.runtime._placement(node, values)
            if dest != self.my_index:
                self.out_units.setdefault(dest, []).append((slot, node, values))
                return
        if node.is_collector:
            state = self.ctx.guardian.state
            entry_key = ("graph.collect", self.graph_id, node.node_id)
            inputs = state.get(entry_key)
            if inputs is None:
                inputs = state[entry_key] = {}
            inputs[slot] = values
            if len(inputs) < node.n_inputs:
                return
            # Each input arrives exactly once, so the join fires once: drop
            # its entry before yielding into execution.
            del state[entry_key]
            yield from self.execute(node, [inputs[i] for i in range(node.n_inputs)])
        else:
            yield from self.execute(node, values)

    def execute(self, node: TreeNode, fn_inputs: Any):
        """Run one routine here, then cascade its children."""
        spec = node.spec
        yield self.ctx.compute(spec.cost)
        migrated = (
            not node.is_collector
            and self.runtime.router.shard_index(node.sched_key) != self.my_index
        )
        tracer = self.ctx.env.tracer
        if tracer is not None:
            tracer.emit(
                "graph.routine",
                shard=self.my_name,
                graph=self.graph_id,
                node=node.node_id,
                callback=spec.name,
                cost=spec.cost,
                migrated=migrated,
            )
        outputs = spec.fn(self.ctx.guardian.state, node.captures, fn_inputs)
        outputs = () if outputs is None else tuple(outputs)
        if node.wants_emit or self.rpc:
            self.out_results.append((node.node_id, spec.name, outputs))
        for slot, child in node.children:
            yield from self.deliver(slot, child, outputs)

    def flush(self) -> None:
        """Ship buffered units to their shards and results to the origin."""
        runtime, head = self.runtime, (self.graph_id, self.epoch, self.batching)
        for index in sorted(self.out_units):
            _ship(
                self.ctx, self.my_name, runtime.router.shard_names[index],
                EXEC_HANDLER, head, self.out_units[index], encode_units,
                self.epoch, self.batching,
            )
        if self.out_results and not self.rpc:
            _ship(
                self.ctx, self.my_name, runtime.origin, RESULT_HANDLER,
                (self.graph_id,), self.out_results, encode_results,
                self.epoch, self.batching,
            )


class GraphRuntime:
    """Client- and shard-side machinery for one shard group."""

    def __init__(self, system: Any, shard_names: Iterable[str], origin: str) -> None:
        self.system = system
        self.router = ShardRouter(tuple(shard_names))
        self.origin = origin
        #: (graph_id, node_id) -> unresolved promise on the origin.
        self._pending: Dict[Tuple[int, int], Promise] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install_shard(self, guardian: Any) -> None:
        """Install the graph execution handlers on one shard guardian."""
        guardian.create_handler(
            EXEC_HANDLER, _EXEC_TYPE, self._exec_impl, group=GRAPH_GROUP
        )
        guardian.create_handler(
            EXEC_ONE_HANDLER, _EXEC_ONE_TYPE, self._exec_one_impl, group=GRAPH_GROUP
        )

    def install_origin(self, guardian: Any) -> None:
        """Install the result sink on the submitting guardian."""
        guardian.create_handler(
            RESULT_HANDLER, _RESULT_TYPE, self._result_impl, group=GRAPH_GROUP
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _placement(self, node: TreeNode, values: Tuple[Any, ...]) -> int:
        """The shard index *node* runs on once *values* are delivered."""
        key = node.sched_key
        if node.spec.node_func is not None and not node.is_collector:
            key = node.spec.node_func(node.captures, values)
        return self.router.shard_index(key)


    # ------------------------------------------------------------------
    # Shard handlers
    # ------------------------------------------------------------------
    def _exec_impl(
        self, ctx: Any, graph_id: int, epoch: int, batching: bool, units: str
    ):
        engine = _ShardEngine(self, ctx, graph_id, epoch, batching)
        for slot, node, values in decode_units(_from_wire(units)):
            yield from engine.deliver(slot, node, values)
        engine.flush()

    def _exec_one_impl(self, ctx: Any, graph_id: int, unit: str):
        units = decode_units(_from_wire(unit))
        if len(units) != 1:
            raise Failure("exec_one takes one unit, got %d" % len(units))
        engine = _ShardEngine(self, ctx, graph_id, epoch=0, batching=False, rpc=True)
        yield from engine.deliver(*units[0])
        return _to_wire(encode_results(engine.out_results))

    def _result_impl(self, ctx: Any, graph_id: int, results: str):
        for node_id, _name, outputs in decode_results(_from_wire(results)):
            promise = self._pending.pop((graph_id, node_id), None)
            if promise is not None and not promise.ready():
                promise.resolve_normal(*outputs)
        return
        yield  # unreachable: makes this handler a generator like the rest

    def abandon(self, reason: str = "graph result never arrived") -> int:
        """Resolve every still-pending submission promise to ``unavailable``.

        The give-up half of a bounded wait: a client that has slept its
        settle budget calls this so lost calls (a crashed shard, a
        broken cascade) break their promises instead of stranding them —
        exactly the paper's rule that communication failure maps to the
        ``unavailable`` condition.  Returns how many promises it broke;
        results that arrive later find nothing pending and are dropped.
        """
        count = 0
        for key in sorted(self._pending):
            promise = self._pending.pop(key)
            if not promise.ready():
                promise.resolve_exceptional(Unavailable(reason))
                count += 1
        return count

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        ctx: Any,
        graph: GraphBuilder,
        epoch: int = 0,
        batching: bool = True,
    ) -> Dict[str, Promise]:
        """Ship *graph* to its shards; promises per emitting node, by tag.

        With ``batching`` on, all roots bound for one shard travel as one
        ``exec`` call (and the shards batch their own cascades the same
        way); off, every delivery is its own call — same DAG, same
        placement, strictly more wire messages.
        """
        roots, emits = graph.compile()
        graph_id = self.system.env.new_serial("graph")
        promises: Dict[str, Promise] = {}
        for node_id, tag, spec in emits:
            if tag in promises:
                raise GraphError("duplicate emit tag %r" % (tag,))
            promise = Promise(ctx.env, ptype=spec.promise_type, label="graph:%s" % tag)
            self._pending[(graph_id, node_id)] = promise
            promises[tag] = promise
        per_shard: Dict[int, List[Unit]] = {}
        for root in roots:
            per_shard.setdefault(self._placement(root, ()), []).append((0, root, ()))
        for index in sorted(per_shard):
            _ship(
                ctx, self.origin, self.router.shard_names[index], EXEC_HANDLER,
                (graph_id, epoch, batching), per_shard[index], encode_units,
                epoch, batching,
            )
        return promises

    def run_rpc(self, ctx: Any, graph: GraphBuilder):
        """Drive the same DAG with one blocking RPC per edge (baseline).

        A generator for client processes: ``results = yield from
        runtime.run_rpc(ctx, g)``.  The client walks the DAG itself —
        every edge is a round trip carrying a single-node tree, and
        every join input is its own call against the collector's shard.
        Returns outputs keyed by emit tag, like :meth:`submit` resolves.
        """
        roots, emits = graph.compile()
        emit_tags = {node_id: tag for node_id, tag, _spec in emits}
        graph_id = self.system.env.new_serial("graph")
        results: Dict[str, Tuple[Any, ...]] = {}
        queue = deque((0, root, ()) for root in roots)
        while queue:
            slot, node, values = queue.popleft()
            dest = self.router.shard_names[self._placement(node, values)]
            ref = ctx.lookup(dest, EXEC_ONE_HANDLER, group=GRAPH_GROUP)
            unit = encode_units([(slot, node.without_children(), values)])
            reply = yield ref.call(graph_id, _to_wire(unit))
            for _node_id, _name, outputs in decode_results(_from_wire(reply)):
                tag = emit_tags.get(node.node_id)
                if tag is not None:
                    results[tag] = outputs
                for child_slot, child in node.children:
                    queue.append((child_slot, child, outputs))
        return results

    def pending_count(self) -> int:
        """Unresolved submissions (for tests and liveness checks)."""
        return len(self._pending)

    def __repr__(self) -> str:
        return "<GraphRuntime %s origin=%s>" % (list(self.router.shard_names), self.origin)
