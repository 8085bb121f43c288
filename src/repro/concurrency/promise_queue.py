"""The shared promise queue of Figures 4-1 and 4-2 (``queue[pt]``).

A thin Argus-flavoured facade over :class:`repro.sim.sync.BlockingQueue`
with the paper's operation names (``enq``/``deq``), critical-section
protection around the queue operations (so coenter termination can never
observe a half-updated queue — the paper's dequeue-damage example), and an
optional element type used to sanity-check enqueued promises.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.concurrency.critical import critical_section
from repro.core.promise import Promise
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.sim.sync import BlockingQueue, QueueClosed
from repro.types.signatures import PromiseType

__all__ = ["PromiseQueue", "QueueClosed"]


class PromiseQueue:
    """A FIFO of promises shared between producer and consumer processes."""

    def __init__(
        self,
        env: Environment,
        element_type: Optional[PromiseType] = None,
    ) -> None:
        self.env = env
        self.element_type = element_type
        self._queue = BlockingQueue(env)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def raw(self) -> BlockingQueue:
        """The underlying queue (what ``Coenter.guard_queue`` wants)."""
        return self._queue

    def enq(self, promise: Promise) -> Event:
        """Enqueue a promise; yieldable (never blocks: the queue is unbounded)."""
        if self.element_type is not None and isinstance(promise, Promise):
            if promise.ptype is not None and promise.ptype != self.element_type:
                raise TypeError(
                    "promise type %r does not match queue element type %r"
                    % (promise.ptype, self.element_type)
                )
        with critical_section(self.env):
            return self._queue.put(promise)

    def deq(self) -> Event:
        """Dequeue the oldest promise; yieldable, waits while empty.

        Raises :class:`QueueClosed` into the waiting process if the queue
        is closed (the coenter's answer to the termination problem).
        """
        with critical_section(self.env):
            return self._queue.get()

    def close(self, reason: Any = None) -> None:
        """Close the queue; blocked and future deq/enq raise QueueClosed."""
        self._queue.close(reason)
