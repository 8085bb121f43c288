"""Blocking FIFO queue for simulated processes.

The paper notes that the shared promise queue of Figure 4-1 "can be
implemented using standard synchronization mechanisms such as semaphores [3]
or monitors [8]".  Over the simulation kernel no such mechanism is needed:
:class:`BlockingQueue` parks blocked getters and putters as kernel events
and wakes them in FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.events import Event
from repro.sim.kernel import Environment

__all__ = ["BlockingQueue", "QueueClosed"]


class _PutEvent(Event):
    """A blocked put: the event plus the item awaiting queue space."""

    __slots__ = ("_pending_item",)


class QueueClosed(Exception):
    """Raised to getters blocked on a :class:`BlockingQueue` that is closed.

    This models the "termination problem" of section 4.1: if the producing
    process dies, the consumer would hang forever in ``deq`` unless the queue
    is torn down.  The coenter construct closes shared queues when it
    terminates arms early.
    """

    def __init__(self, reason: Any = None) -> None:
        super().__init__(reason)
        self.reason = reason


class BlockingQueue:
    """Unbounded FIFO queue; ``get`` blocks while empty.

    This is the ``queue[pt]`` abstraction of Figures 4-1 and 4-2: producers
    ``enq`` promises, the consumer ``deq``s them and waits when the queue is
    empty.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive, got %r" % (capacity,))
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()
        self._closed: Optional[QueueClosed] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed is not None

    def put(self, item: Any) -> Event:
        """Enqueue *item*; blocks only when a capacity is set and reached."""
        event = _PutEvent(self.env)
        if self._closed is not None:
            event.fail(self._closed)
            return event
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                event.succeed()
                return event
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append(event)
            event._pending_item = item
            return event
        self._items.append(item)
        event.succeed()
        return event

    def get(self) -> Event:
        """Return an event yielding the oldest item; fails if queue closed."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
            return event
        if self._closed is not None:
            event.fail(self._closed)
            return event
        self._getters.append(event)
        return event

    def close(self, reason: Any = None) -> None:
        """Close the queue: all pending and future gets/puts fail.

        Items already queued remain retrievable through :meth:`get`, but
        blocked getters are failed immediately, which is
        precisely how the coenter avoids the Figure 4-1 hang.
        """
        if self._closed is not None:
            return
        self._closed = QueueClosed(reason)
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.defused = True
                getter.fail(self._closed)
        while self._putters:
            putter = self._putters.popleft()
            if not putter.triggered:
                putter.defused = True
                putter.fail(self._closed)

    def _admit_putter(self) -> None:
        while self._putters:
            putter = self._putters.popleft()
            if not putter.triggered:
                self._items.append(putter._pending_item)
                putter.succeed()
                return
