"""Per-stream execution of handler calls.

"When a handler call arrives at a guardian, the Argus system will delay its
execution until all earlier calls on its stream have completed. ...  Note,
however, that calls on different streams can be processed in parallel."
(§2.1)

Each stream receiver gets its own :class:`GroupDispatcher`: a FIFO of
delivered requests drained by a driver process that runs one handler call
at a time, each in a fresh process with a fresh agent.  Different
dispatchers (different streams) run concurrently.

Everything observable — port lookup, argument decoding, execution, outcome
posting — happens inside the sequential driver, so outcomes are produced
strictly in call order.  That ordering is what makes a decode failure a
*synchronous* break: every call before the failing one has already
completed and is unaffected (§2).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Optional, Tuple

from repro.core.exceptions import Failure, Signal, Unavailable
from repro.core.outcome import Outcome
from repro.encoding.errors import DecodeError
from repro.encoding.transmit import ArgsCodec, OutcomeCodec
from repro.sim.process import Interrupt, ProcessKilled
from repro.streams.receiver import CallDispatcher, StreamReceiver

__all__ = ["GroupDispatcher"]


class GroupDispatcher(CallDispatcher):
    """Executor for the calls of one stream, one at a time in call order
    (or overlapped, for a parallel group)."""

    def __init__(self, guardian: Any, group: Any) -> None:
        self.guardian = guardian
        self.group = group
        self.env = guardian.env
        self._queue: Deque[Tuple[StreamReceiver, int, str, bytes, str, Any]] = deque()
        self._driver = None
        self._stopped = False
        #: Handler processes currently executing (for orphan destruction).
        self._running: list = []

    # ------------------------------------------------------------------
    # CallDispatcher interface
    # ------------------------------------------------------------------
    def dispatch(
        self,
        receiver: StreamReceiver,
        seq: int,
        port_id: str,
        args_bytes: bytes,
        kind: str,
        span: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        """Queue one delivered request; starts the driver if idle."""
        if self._stopped or not self.guardian.alive:
            return
        self._queue.append((receiver, seq, port_id, args_bytes, kind, span))
        if self._driver is None or self._driver.triggered:
            self._driver = self.env.process(self._run())

    def stop(self, reason: str) -> None:
        """The stream broke or was superseded: drop queued calls (they are
        'discarded automatically, so user code never needs to deal with
        them') and destroy executions already in progress — the orphan
        destruction of §4.2: "the Argus system guarantees that it will
        find these computations and destroy them later"."""
        self._stopped = True
        self._queue.clear()
        running, self._running = self._running, []
        for process in running:
            if process.is_alive:
                process.kill("orphaned call destroyed: %s" % reason)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _run(self):
        """Start each queued call in its own process.

        A sequential group waits for each call before starting the next;
        a parallel group (the §2.1 override) starts every queued call at
        once and lets the stream receiver re-serialize the outcomes, so
        replies still travel in call order even though execution overlaps.
        """
        parallel = self.group.parallel
        while self._queue and not self._stopped and self.guardian.alive:
            receiver, seq, port_id, args_bytes, kind, span = self._queue.popleft()

            port = self.group.lookup(port_id)
            if port is None:
                # The call is an error, but the stream survives.
                receiver.fail_call(seq, "handler does not exist: %s" % port_id, kind)
                continue
            try:
                args = ArgsCodec.for_type(port.handler_type).decode(args_bytes)
            except DecodeError as exc:
                # Fails this call and breaks the stream synchronously;
                # everything before it has already completed.
                receiver.decode_failure(seq, kind, exc)
                continue

            overhead = self.guardian.system.process_spawn_overhead
            if overhead > 0:
                yield self.env.timeout(overhead)
            process = self.guardian.spawn_handler(port, args, span=span)
            self._emit_executing(receiver, seq, port_id, span, process)
            self._running.append(process)
            call = (receiver, seq, kind, port, span)
            if parallel:
                process.callbacks.append(partial(self._complete, call))
                continue
            try:
                yield process
            except (ProcessKilled, Interrupt):
                return  # guardian crashed out from under us
            except Exception:
                pass  # the handler's own exception: _complete maps it
            self._complete(call, process)

    def _complete(self, call: Tuple, event: Any) -> None:
        """Post the outcome of the finished handler process *event*."""
        receiver, seq, kind, port, span = call
        self._running = [p for p in self._running if p.is_alive]
        if event.ok:
            outcome = Outcome.of_return(port.handler_type.returns, event.value, "handler")
        else:
            exc = event.value
            event.defused = True
            if isinstance(exc, Signal):
                outcome = Outcome.exceptional(exc)
            elif isinstance(exc, (Unavailable, Failure)):
                outcome = Outcome.exceptional(type(exc)(*exc.args))
            elif isinstance(exc, (ProcessKilled, Interrupt)):
                return  # guardian crashed; no reply will be sent
            else:  # a bug in handler code
                outcome = Outcome.failure("handler crashed: %r" % (exc,))
        self._emit_completed(receiver, seq, span, outcome)
        receiver.post_outcome(seq, outcome, kind, OutcomeCodec.for_type(port.handler_type))

    def _emit_executing(self, receiver, seq, port_id, span, process) -> None:
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.call_executing",
                stream=receiver.trace_label,
                incarnation=receiver.incarnation,
                seq=seq,
                port=port_id,
                pid=process.pid,
                trace_id=span[0] if span is not None else None,
                span_id=span[1] if span is not None else None,
            )

    def _emit_completed(self, receiver, seq, span, outcome) -> None:
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "stream.call_completed",
                stream=receiver.trace_label,
                incarnation=receiver.incarnation,
                seq=seq,
                status=outcome.condition,
                trace_id=span[0] if span is not None else None,
                span_id=span[1] if span is not None else None,
            )
