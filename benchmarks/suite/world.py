"""What one repeat of a workload builds, drives and checks.

A workload is three plain functions over a :class:`World`:

* ``build(spec, seed, tracing) -> World`` — the set-up the harness times
  as ``setup_s``: a fresh system (or cluster), handlers, seeded inputs;
* ``drive(world)`` — the timed region: issue every op and consume every
  result, recording one observation per op;
* ``check(world)`` — untimed: compare what was consumed against the
  expected outputs and count every wrong or failed op.

The driver never raises on a failed op.  ``Unavailable``/``Failure`` and
wrong values are counted per op (``world.failed``) and the run goes on.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core import ArgusError

__all__ = ["World", "FAILED", "claim_windows"]

#: Stands for the value of an op whose claim raised.
FAILED = object()


class World:
    """One repeat's system plus everything the driver observed."""

    def __init__(self, spec: Any, system: Any) -> None:
        self.spec = spec
        #: ``ArgusSystem`` (sim) or the client ``RtHost`` (rt).
        self.system = system
        #: Ops attempted and ops that failed or returned a wrong value.
        self.ops = 0
        self.failed = 0
        #: Per-op latency samples: host seconds and simulated time units.
        self.wall_lat: List[float] = []
        self.sim_lat: List[float] = []
        #: Simulated time the timed region covered.
        self.sim_elapsed = 0.0
        #: Values the driver consumed, for :func:`check` to compare.
        self.got: List[Any] = []
        #: Sender counter snapshots of the refs the driver itself holds.
        self.sender_stats: List[Dict[str, int]] = []
        #: Worker-process CPU seconds inside the timed region, and the
        #: worker's network counters once it has stopped (rt only).
        self.worker_cpu_s = 0.0
        self.worker_stats: Dict[str, int] = {}
        #: Workload-private state (expected values, server counters, ...).
        self.extra: Dict[str, Any] = {}

    def net_stats(self) -> Dict[str, int]:
        """Network counters of the whole simulated world."""
        return self.system.stats()

    def run(self, process: Any) -> None:
        """Run the world until *process* has finished."""
        self.system.run(until=process)

    def close(self) -> None:
        """Release what :func:`build` opened (processes, sockets)."""

    def count_mismatches(self, expected: Sequence[Any]) -> None:
        """Fail every op of ``got`` that is missing, failed or differs
        from *expected* (same order)."""
        self.failed += sum(
            1 for got, want in zip(self.got, expected) if got is FAILED or got != want
        )
        self.failed += abs(len(expected) - len(self.got))


def claim_windows(
    ctx: Any,
    world: World,
    ref: Any,
    calls: Sequence[tuple],
    window: int,
):
    """Closed loop, one client: issue *window* calls, flush, claim all.

    ``yield from``-able inside a client process; *calls* holds one
    argument tuple per op.  Appends one value per op to ``world.got``
    (:data:`FAILED` when the claim raised) and one wall and one sim
    latency per op, each from issue to claim return.
    """
    got, wall_lat, sim_lat = world.got, world.wall_lat, world.sim_lat
    env, clock = ctx.env, time.perf_counter
    for start in range(0, len(calls), window):
        issued: List[Optional[tuple]] = []
        for args in calls[start:start + window]:
            try:
                issued.append((ref.stream(*args), clock(), env.now))
            except ArgusError:
                issued.append(None)
        ref.flush()
        for item in issued:
            if item is None:
                got.append(FAILED)
                continue
            promise, wall0, sim0 = item
            try:
                got.append((yield promise.claim()))
            except ArgusError:
                got.append(FAILED)
            wall_lat.append(clock() - wall0)
            sim_lat.append(env.now - sim0)
    world.ops += len(calls)
