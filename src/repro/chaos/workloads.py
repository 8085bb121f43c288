"""Chaos-campaign workloads: small worlds with checkable fault-free answers.

Each workload builds a guardian topology, drives a client activity through
it, and knows what every call *should* produce in a fault-free run — so the
campaign oracles can check that whatever chaos did, each claimed promise
resolved either to the fault-free value or to a legal
``unavailable``/``failure`` (the paper's exception vocabulary for broken
streams).

The roster mirrors the repository's three examples plus one new workload:

* ``echo``     — the fault-tolerance example's shape: batched stream calls
  to one echo server, claimed in order;
* ``pipeline`` — the grades-pipeline shape: nested calls, client → mid
  guardian whose handler RPCs a db guardian;
* ``bulkload`` — the kv-bulkload shape: send-heavy (no reply data), flush +
  synch, then verification reads;
* ``kv``       — NEW: a multi-guardian sharded KV store.  Each key receives
  several ``add`` deltas of ``4**j``, so a later read is a base-4 ledger of
  execution counts: digit *j* is exactly how many times add *j* executed.
  Any digit > 1 is a duplicated execution, a set bit for a never-sent call
  is a phantom, and a cleared bit for an acknowledged call is a lost write
  — an end-to-end exactly-once oracle that needs no access to transport
  internals.
* ``kv_graph`` — the same base-4 ledger driven through the PR 10 promise
  graph engine: adds travel as cross-shard routine chains, Zipf-skewed
  multi-key reads join at collectors, and the driver waits with a bounded
  settle instead of claiming (unready promises are abandoned to
  ``unavailable``, never stranded);
* ``echo_vat`` / ``kv_vat`` — the echo and kv drivers as they are, but
  recording through promise continuations instead of blocking claims.

Every driver records outcomes as ``(key, tag, value)`` triples where *tag*
is ``"ok"`` or the Argus condition name (``unavailable``, ``failure``, a
signal name, ``exception_reply``), through the workload's :attr:`recorder`
(:class:`Claims` or :class:`Continuations`).  Drivers always run to
completion; they never let an exception escape, so liveness is assertable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.exceptions import ArgusError, Signal
from repro.core.promise import Promise
from repro.entities.system import ArgusSystem
from repro.graph import GraphBuilder, GraphRuntime, register_routine
from repro.streams.config import StreamConfig
from repro.types.signatures import INT, STRING, HandlerType

__all__ = ["Workload", "WORKLOADS", "create_workload"]

Outcome = Tuple[str, str, Any]

#: Transport tuning shared by campaign workloads: small batches and an
#: aggressive retransmission budget, so breaks are detected (and streams
#: reincarnated) quickly and a hostile schedule stays cheap to simulate.
#: The checked-in seed corpus digests (tests/chaos/seeds/) were recorded
#: against it and must replay bit-identically.  ``max_rto`` is kept
#: tight: chaos horizons are tens of seconds, and exponential RTO backoff
#: against a crashed node must still walk the full ``max_retries`` ladder
#: and break well inside the liveness hard cap.
CHAOS_STREAM_CONFIG = StreamConfig(
    batch_size=4,
    reply_batch_size=4,
    max_buffer_delay=1.0,
    reply_max_delay=1.0,
    rto=5.0,
    max_retries=2,
    ack_delay=2.0,
    reply_ack_delay=6.0,
    auto_restart=True,
    max_batch_size=16,
    min_rto=1.0,
    max_rto=6.0,
    max_inflight_calls=32,
)

#: Network model parameters of every campaign world.
CHAOS_NETWORK: Dict[str, float] = {"latency": 1.0, "kernel_overhead": 0.1, "jitter": 0.5}


def _tag(outcome) -> Tuple[str, Any]:
    """``(tag, value)`` of a resolved call outcome: ``("ok", value)`` with
    the claim value, or the exception's condition name and None."""
    try:
        return ("ok", outcome.apply())
    except ArgusError as exc:
        return (exc.condition, None)


def _await(event):
    """``tag, value = yield from _await(event)`` — the :func:`_tag` pair of
    any yieldable that delivers a value or raises (claim, RPC, synch)."""
    try:
        value = yield event
    except ArgusError as exc:
        return (exc.condition, None)
    return ("ok", value)


def _flush(handle) -> None:
    """Flush *handle*'s stream; a break mid-batch still resolves every
    promise already made, so the claims report it."""
    try:
        handle.flush()
    except ArgusError:
        pass


class Claims:
    """The blocking recorder: each :meth:`claim` waits for its promise.

    A driver records its ``(key, tag, value)`` outcomes into
    :attr:`outcomes` through ``call``, ``claim`` and ``settle``; the two
    recorders differ only in when the driver waits.
    """

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.outcomes: List[Outcome] = []

    def call(self, key: str, handle, *args) -> Optional[Promise]:
        """Stream ``handle(*args)``; a refused call is recorded under
        *key* at once and returns None."""
        try:
            return handle.stream(*args)
        except ArgusError as exc:
            self.outcomes.append((key, exc.condition, None))
            return None

    def claim(self, key: str, promise: Optional[Promise]):
        """``yield from claim(key, p)``: record *p*'s outcome under *key*
        (None, a refused call, is skipped)."""
        if promise is not None:
            tag, value = yield from _await(promise.claim())
            self.outcomes.append((key, tag, value))

    def settle(self):
        """``yield from settle()``: wait until every claimed outcome is
        recorded (claims record as they go, so nothing to wait for)."""
        return ()


class Continuations(Claims):
    """The vat recorder: :meth:`claim` registers a recording continuation
    and returns at once; :meth:`settle` claims one ``Promise.all`` over
    the continuations registered since the last settle.

    Outcome *order* is therefore resolution order, not call order.
    """

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._recording: List[Promise] = []

    def claim(self, key: str, promise: Optional[Promise]):
        if promise is not None:
            self._recording.append(promise.when_resolved(
                lambda outcome: self.outcomes.append((key,) + _tag(outcome))
            ))
        return ()

    def settle(self):
        recording, self._recording = self._recording, []
        yield Promise.all(self.ctx.env, recording).claim()


class Workload:
    """Base class: a buildable world plus a driver with known answers."""

    #: Registry key and default display name.
    name = "workload"
    #: How long (simulated) the driver is typically active: fault start
    #: times are generated inside this window.
    horizon = 50.0
    #: Signal conditions a driver may legitimately report under faults.
    allowed_signals: Tuple[str, ...] = ()
    #: The guardian whose node must never crash (it drives the run).
    client = "client"
    #: How the driver waits for and records its calls' outcomes.
    recorder = Claims

    # -- to implement ---------------------------------------------------
    def build(self, system: ArgusSystem) -> None:
        raise NotImplementedError

    def driver(self, ctx):  # a generator: returns List[Outcome]
        raise NotImplementedError

    def expected(self) -> Dict[str, Any]:
        """Fault-free value per outcome key (keys absent here are
        tag-checked only)."""
        return {}

    # -- topology helpers -----------------------------------------------
    def nodes(self, system: ArgusSystem) -> List[str]:
        """All node names of the built world (partition candidates)."""
        return [node.name for node in system.network.nodes()]

    def crashable(self, system: ArgusSystem) -> List[str]:
        """Nodes chaos may crash: everything but the driving client."""
        protected = "node:%s" % self.client
        return [name for name in self.nodes(system) if name != protected]

    # -- outcome checking ------------------------------------------------
    def legal_tags(self) -> frozenset:
        return frozenset(
            ("ok", "unavailable", "failure", "exception_reply") + self.allowed_signals
        )

    def check_outcomes(self, outcomes: List[Outcome]) -> List[str]:
        """Workload-specific end-to-end checks; returns problem strings.

        The default: every tag is legal, and every ``ok`` outcome whose key
        has a fault-free expectation matches it exactly.
        """
        problems: List[str] = []
        legal = self.legal_tags()
        expected = self.expected()
        for key, tag, value in outcomes:
            if tag not in legal:
                problems.append("illegal outcome tag %r for %s" % (tag, key))
            elif tag == "ok" and key in expected and value != expected[key]:
                problems.append(
                    "%s claimed ok with %r; fault-free value is %r"
                    % (key, value, expected[key])
                )
        return problems


# ----------------------------------------------------------------------
# server handlers — one set, shared by the worlds below
# ----------------------------------------------------------------------

_INT_TO_INT = HandlerType(args=[INT], returns=[INT])
_PUT = HandlerType(args=[STRING, INT])  # no results: travels as a send
_GET = HandlerType(args=[STRING], returns=[INT], signals={"missing": []})
_ADD = HandlerType(args=[STRING, INT], returns=[INT])


def _echo(ctx, x):
    yield ctx.compute(0.05)
    return x


def _double(ctx, x):
    yield ctx.compute(0.05)
    return 2 * x


def _record(ctx, x):
    doubled = yield ctx.lookup("db", "double").call(x)
    return doubled + 1


def _put(ctx, key, value):
    yield ctx.compute(0.02)
    ctx.guardian.state["data"][key] = value


def _get(ctx, key):
    yield ctx.compute(0.02)
    data = ctx.guardian.state["data"]
    if key not in data:
        raise Signal("missing")
    return data[key]


def _add(ctx, key, delta):
    yield ctx.compute(0.02)
    data = ctx.guardian.state["data"]
    data[key] = data.get(key, 0) + delta
    return data[key]


# ----------------------------------------------------------------------
# echo — batched stream calls against one server
# ----------------------------------------------------------------------


class EchoWorkload(Workload):
    name = "echo"
    horizon = 45.0
    n_batches = 5
    batch = 3

    def build(self, system: ArgusSystem) -> None:
        system.create_guardian("server").create_handler("echo", _INT_TO_INT, _echo)
        system.create_guardian(self.client)

    def expected(self) -> Dict[str, Any]:
        return {
            "call%02d" % i: i for i in range(self.n_batches * self.batch)
        }

    def driver(self, ctx):
        echo = ctx.lookup("server", "echo")
        record = self.recorder(ctx)
        index = 0
        for _ in range(self.n_batches):
            yield ctx.sleep(2.0)
            batch = []
            for _ in range(self.batch):
                key = "call%02d" % index
                batch.append((key, record.call(key, echo, index)))
                index += 1
            _flush(echo)
            for key, promise in batch:
                yield from record.claim(key, promise)
        yield from record.settle()
        return record.outcomes


# ----------------------------------------------------------------------
# pipeline — nested calls: client -> mid -> db
# ----------------------------------------------------------------------


class PipelineWorkload(Workload):
    name = "pipeline"
    horizon = 55.0
    n_calls = 10

    def build(self, system: ArgusSystem) -> None:
        system.create_guardian("db").create_handler("double", _INT_TO_INT, _double)
        system.create_guardian("mid").create_handler("record", _INT_TO_INT, _record)
        system.create_guardian(self.client)

    def expected(self) -> Dict[str, Any]:
        return {"record%02d" % i: 2 * i + 1 for i in range(self.n_calls)}

    def driver(self, ctx):
        mid = ctx.lookup("mid", "record")
        record = self.recorder(ctx)
        for i in range(self.n_calls):
            yield ctx.sleep(3.0)
            key = "record%02d" % i
            promise = record.call(key, mid, i)
            if promise is not None:
                _flush(mid)
                yield from record.claim(key, promise)
        yield from record.settle()
        return record.outcomes


# ----------------------------------------------------------------------
# bulkload — send-heavy: puts as sends, flush + synch, verification gets
# ----------------------------------------------------------------------


class BulkloadWorkload(Workload):
    name = "bulkload"
    horizon = 45.0
    shards = ("shard_a", "shard_b")
    keys_per_shard = 6
    allowed_signals = ("missing",)

    @staticmethod
    def _value(shard: str, i: int) -> int:
        return i * 7 + (1 if shard.endswith("a") else 2)

    def build(self, system: ArgusSystem) -> None:
        for shard in self.shards:
            guardian = system.create_guardian(shard)
            guardian.state["data"] = {}
            guardian.create_handler("put", _PUT, _put)
            guardian.create_handler("get", _GET, _get)
        system.create_guardian(self.client)

    def expected(self) -> Dict[str, Any]:
        report: Dict[str, Any] = {}
        for shard in self.shards:
            for i in range(self.keys_per_shard):
                report["get:%s:key%d" % (shard, i)] = self._value(shard, i)
        return report

    def driver(self, ctx):
        record = self.recorder(ctx)
        for shard in self.shards:
            put = ctx.lookup(shard, "put")
            refused = 0
            for i in range(self.keys_per_shard):
                try:
                    put.send("key%d" % i, self._value(shard, i))
                except ArgusError:
                    refused += 1
            _flush(put)
            if refused:
                record.outcomes.append(("put:%s" % shard, "unavailable", None))
            tag, _ = yield from _await(put.synch())
            record.outcomes.append(("synch:%s" % shard, tag, None))
            yield ctx.sleep(2.0)
        yield ctx.sleep(4.0)
        for shard in self.shards:
            get = ctx.lookup(shard, "get")
            for i in range(self.keys_per_shard):
                key = "get:%s:key%d" % (shard, i)
                promise = record.call(key, get, "key%d" % i)
                if promise is not None:
                    _flush(get)
                    yield from record.claim(key, promise)
        yield from record.settle()
        return record.outcomes

    def check_outcomes(self, outcomes: List[Outcome]) -> List[str]:
        problems = super().check_outcomes(outcomes)
        # Sharpened read-your-writes check: once a shard's synch reported
        # "ok", every put on it completed normally, so a later get of its
        # keys must never signal "missing" (guardian state survives node
        # crashes; only transport state is volatile).
        synched_ok = {
            key.split(":", 1)[1]
            for key, tag, _ in outcomes
            if key.startswith("synch:") and tag == "ok"
        }
        put_trouble = {
            key.split(":", 1)[1]
            for key, tag, _ in outcomes
            if key.startswith("put:") and tag != "ok"
        }
        for key, tag, _ in outcomes:
            if not key.startswith("get:") or tag != "missing":
                continue
            shard = key.split(":")[1]
            if shard in synched_ok and shard not in put_trouble:
                problems.append(
                    "%s signalled missing although synch:%s reported ok" % (key, shard)
                )
        return problems


# ----------------------------------------------------------------------
# kv — NEW: multi-guardian sharded store with a base-4 execution ledger
# ----------------------------------------------------------------------


class KvWorkload(Workload):
    """Sharded adds with per-call ledger deltas of ``4**j``.

    A read's base-4 digits are execution counts per add round, making
    duplicated, phantom and lost executions distinguishable end-to-end
    (see module docstring).
    """

    name = "kv"
    horizon = 60.0
    n_shards = 3
    n_keys = 6
    rounds = 4
    allowed_signals = ("missing",)

    def shard_of(self, key_index: int) -> str:
        return "shard%d" % (key_index % self.n_shards)

    def build(self, system: ArgusSystem) -> None:
        for s in range(self.n_shards):
            guardian = system.create_guardian("shard%d" % s)
            guardian.state["data"] = {}
            guardian.create_handler("add", _ADD, _add)
            guardian.create_handler("get", _GET, _get)
        system.create_guardian(self.client)

    def expected(self) -> Dict[str, Any]:
        full = sum(4 ** j for j in range(self.rounds))  # every digit 1
        return {"get:key%d" % k: full for k in range(self.n_keys)}

    def driver(self, ctx):
        record = self.recorder(ctx)
        handles = {
            "shard%d" % s: ctx.lookup("shard%d" % s, "add")
            for s in range(self.n_shards)
        }
        # Key visit order comes from the workload's own named stream —
        # fault streams never perturb it (and vice versa).
        order_rng = ctx.system.rng.stream("workload.kv")
        for j in range(self.rounds):
            yield ctx.sleep(2.5)
            keys = list(range(self.n_keys))
            order_rng.shuffle(keys)
            batch = []
            for k in keys:
                key = "add:key%d:r%d" % (k, j)
                handle = handles[self.shard_of(k)]
                batch.append((key, record.call(key, handle, "key%d" % k, 4 ** j)))
            for handle in handles.values():
                _flush(handle)
            for key, promise in batch:
                yield from record.claim(key, promise)
        # Every add settles (success or break) before the reads.
        yield from record.settle()
        yield ctx.sleep(5.0)
        for k in range(self.n_keys):
            key = "get:key%d" % k
            get = ctx.lookup(self.shard_of(k), "get")
            promise = record.call(key, get, "key%d" % k)
            if promise is not None:
                _flush(get)
                yield from record.claim(key, promise)
        yield from record.settle()
        return record.outcomes

    # -- the ledger oracle ----------------------------------------------
    def _digits(self, value: int) -> List[int]:
        digits = []
        for _ in range(self.rounds):
            digits.append(value % 4)
            value //= 4
        digits.append(value)  # overflow bucket: anything past the rounds
        return digits

    def check_outcomes(self, outcomes: List[Outcome]) -> List[str]:
        problems: List[str] = []
        legal = self.legal_tags()
        adds: Dict[str, Dict[int, str]] = {}  # key -> round -> tag
        for key, tag, value in outcomes:
            if tag not in legal:
                problems.append("illegal outcome tag %r for %s" % (tag, key))
            if key.startswith("add:"):
                _, keyname, roundname = key.split(":")
                adds.setdefault(keyname, {})[int(roundname[1:])] = tag
        for key, tag, value in outcomes:
            if not key.startswith("get:"):
                continue
            keyname = key.split(":", 1)[1]
            tags = adds.get(keyname, {})
            if tag == "missing":
                if any(t == "ok" for t in tags.values()):
                    problems.append(
                        "%s signalled missing although an add reported ok" % key
                    )
                continue
            if tag != "ok":
                continue
            digits = self._digits(value)
            if digits[-1] or any(d > 1 for d in digits[:-1]):
                problems.append(
                    "%s ledger %r implies a duplicated add execution" % (key, value)
                )
                continue
            for j in range(self.rounds):
                add_tag = tags.get(j)
                executed = bool(digits[j])
                if add_tag == "ok" and not executed:
                    problems.append(
                        "%s ledger %r lost add r%d that reported ok" % (key, value, j)
                    )
                # A call refused before buffering never reached the wire:
                # its delta must not appear in the ledger.
                elif add_tag not in (None, "ok", "unavailable", "failure") and executed:
                    problems.append(
                        "%s ledger %r contains refused add r%d" % (key, value, j)
                    )
        return problems


# ----------------------------------------------------------------------
# kv_graph — the kv ledger driven through the promise-graph engine (PR 10)
# ----------------------------------------------------------------------
# The graph routines are ordinary module-level functions over guardian
# state; re-registration on repeated imports is a no-op (latest wins).


def _graph_kv_add(state, captures, inputs):
    key, delta = captures
    data = state.setdefault("data", {})
    data[key] = data.get(key, 0) + delta
    return (data[key],)


def _graph_kv_get(state, captures, inputs):
    (key,) = captures
    return (state.setdefault("data", {}).get(key, 0),)


def _graph_kv_sum(state, captures, inputs):
    return (sum(values[0] for values in inputs),)


register_routine(
    "chaos.kv_add",
    _graph_kv_add,
    capture_types=(STRING, INT),
    output_types=(INT,),
    cost=0.02,
)
#: The chainable form: same ledger update, but declares an input row so a
#: chain link can ride its predecessor's output (the value is ignored —
#: the edge exists to exercise cross-shard cascades).
register_routine(
    "chaos.kv_link",
    _graph_kv_add,
    capture_types=(STRING, INT),
    input_types=(INT,),
    output_types=(INT,),
    cost=0.02,
)
register_routine(
    "chaos.kv_get",
    _graph_kv_get,
    capture_types=(STRING,),
    output_types=(INT,),
    cost=0.02,
)
register_routine(
    "chaos.kv_sum",
    _graph_kv_sum,
    input_types=(INT,),
    output_types=(INT,),
    cost=0.02,
)


class KvGraphWorkload(KvWorkload):
    """The base-4 ledger shipped as promise graphs over sharded guardians.

    Every round submits one graph: the shuffled keys are cut into chains
    of ``chain_len`` add links (each link scheduled on its own key, so a
    chain hops shards as a cascading batch call), plus ``reads_per_round``
    Zipf-skewed two-key read transactions — ``get`` sources joining at a
    ``sum`` collector on the hottest key's shard.  Nothing blocks per
    call: the driver sleeps a settle budget, snapshots whichever promises
    resolved, and abandons the rest to ``unavailable`` (the
    promise-resolution oracle forbids stranding).  Adds are snapshot
    *before* the verification reads are issued, so an add recorded ``ok``
    has provably executed before any read ran and the inherited ledger
    oracle stays sound under every schedule.
    """

    name = "kv_graph"
    horizon = 60.0
    chain_len = 3
    reads_per_round = 2
    read_width = 2
    settle = 8.0
    allowed_signals = ()

    def build(self, system: ArgusSystem) -> None:
        shard_names = ["shard%d" % s for s in range(self.n_shards)]
        shards = []
        for shard_name in shard_names:
            guardian = system.create_guardian(shard_name)
            guardian.state["data"] = {}
            shards.append(guardian)
        client = system.create_guardian(self.client)
        self._runtime = GraphRuntime(system, shard_names, origin=self.client)
        for guardian in shards:
            self._runtime.install_shard(guardian)
        self._runtime.install_origin(client)

    def _zipf_pick(self, rng, width: int) -> List[int]:
        """*width* distinct keys, lower indices heavily favoured."""
        keys = list(range(self.n_keys))
        picked: List[int] = []
        for _ in range(width):
            weights = [1.0 / (keys[i] + 1) for i in range(len(keys))]
            roll = rng.random() * sum(weights)
            index = 0
            for index, weight in enumerate(weights):
                roll -= weight
                if roll <= 0.0:
                    break
            picked.append(keys.pop(index))
        return picked

    def _snapshot(self, pending, outcomes: List[Outcome]) -> None:
        """Record each (key, promise): resolved value, or give it up."""
        for key, promise in pending:
            if promise.ready():
                outcomes.append((key,) + _tag(promise.outcome()))
            else:
                outcomes.append((key, "unavailable", None))
        self._runtime.abandon()

    def driver(self, ctx):
        outcomes: List[Outcome] = []
        pending: List[Tuple[str, Promise]] = []
        rng = ctx.system.rng.stream("workload.kv_graph")
        for j in range(self.rounds):
            yield ctx.sleep(2.5)
            keys = list(range(self.n_keys))
            rng.shuffle(keys)
            graph = GraphBuilder()
            tags: List[str] = []
            for start in range(0, self.n_keys, self.chain_len):
                node = None
                for k in keys[start:start + self.chain_len]:
                    captures = ("key%d" % k, 4 ** j)
                    if node is None:
                        node = graph.source(
                            "chaos.kv_add", captures=captures, sched_key=k
                        )
                    else:
                        node = node.then(
                            "chaos.kv_link", captures=captures, sched_key=k
                        )
                    node.emit("add:key%d:r%d" % (k, j))
                    tags.append("add:key%d:r%d" % (k, j))
            for t in range(self.reads_per_round):
                picked = self._zipf_pick(rng, self.read_width)
                gets = [
                    graph.source(
                        "chaos.kv_get", captures=("key%d" % k,), sched_key=k
                    )
                    for k in picked
                ]
                graph.collect(
                    "chaos.kv_sum", gets, sched_key=picked[0]
                ).emit("sum:r%d:t%d" % (j, t))
                tags.append("sum:r%d:t%d" % (j, t))
            try:
                promises = self._runtime.submit(ctx, graph, epoch=j)
            except ArgusError as exc:
                outcomes.extend((tag, exc.condition, None) for tag in tags)
                continue
            pending.extend(promises.items())
        yield ctx.sleep(self.settle)
        # Adds settle (or are abandoned) before any verification read is
        # issued: an "ok" add has executed strictly before every read.
        self._snapshot(pending, outcomes)
        graph = GraphBuilder()
        read_tags = ["get:key%d" % k for k in range(self.n_keys)]
        for k in range(self.n_keys):
            graph.source(
                "chaos.kv_get", captures=("key%d" % k,), sched_key=k
            ).emit("get:key%d" % k)
        try:
            reads = self._runtime.submit(ctx, graph, epoch=self.rounds)
        except ArgusError as exc:
            outcomes.extend((tag, exc.condition, None) for tag in read_tags)
            reads = {}
        yield ctx.sleep(self.settle)
        self._snapshot(list(reads.items()), outcomes)
        return outcomes


# ----------------------------------------------------------------------
# vat variants — the same drivers, recording through continuations
# ----------------------------------------------------------------------
# With the Continuations recorder a driver never waits per call: outcomes
# are recorded inside when_resolved callbacks, and each settle() claims one
# Promise.all over them.  Outcome *order* is therefore resolution order,
# not call order — deterministic for a given seed, but digests are not
# comparable with the blocking variants, so each vat workload has its own
# seed corpus entries.


class EchoVatWorkload(EchoWorkload):
    """The echo world with continuation-recorded outcomes."""

    name = "echo_vat"
    recorder = Continuations


class KvVatWorkload(KvWorkload):
    """The kv world with continuation-recorded outcomes (no round barrier).

    Add rounds are issued on the same sleep cadence as :class:`KvWorkload`
    but nothing blocks between rounds — round *j+1*'s calls can be in
    flight while round *j*'s replies are still arriving, which is exactly
    the overlap the continuation layer exists to allow.  The base-4
    ledger oracle is interleaving-proof (per-round deltas are distinct
    digits), so every check still holds verbatim.
    """

    name = "kv_vat"
    recorder = Continuations


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        EchoWorkload,
        PipelineWorkload,
        BulkloadWorkload,
        KvWorkload,
        KvGraphWorkload,
        EchoVatWorkload,
        KvVatWorkload,
    )
}


def create_workload(name: str) -> Workload:
    """A fresh instance of the named workload (KeyError lists the roster)."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            "no workload named %r (known: %s)" % (name, ", ".join(sorted(WORKLOADS)))
        ) from None
    return factory()
