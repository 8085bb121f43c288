"""Per-stream execution of handler calls.

"When a handler call arrives at a guardian, the Argus system will delay its
execution until all earlier calls on its stream have completed. ...  Note,
however, that calls on different streams can be processed in parallel."
(§2.1)

Each stream receiver gets its own :class:`GroupDispatcher`: a FIFO of
delivered requests drained in kernel callbacks, one handler call at a
time, each in a fresh process with a fresh agent.  Different dispatchers
(different streams) run concurrently.

The drain needs no process of its own.  An idle dispatcher that receives a
call schedules one URGENT start event; its callback looks the port up,
decodes the arguments, reports ``stream.call_executing`` and runs the
handler process's first step there and then.  The drain goes on from a
callback on that process's completion event, which posts the outcome and
starts the next queued call — whether the handler finished in its first
step or blocked first.  A parallel group's drain does not wait: it runs
each queued call's first step in turn.  A call costs one process and no
start event.

Everything observable — port lookup, argument decoding, execution, outcome
posting — happens in that one sequential drain, so outcomes are produced
strictly in call order.  That ordering is what makes a decode failure a
*synchronous* break: every call before the failing one has already
completed and is unaffected (§2).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Dict, Optional, Tuple

from repro.core.exceptions import Failure, Signal, Unavailable
from repro.core.outcome import Outcome
from repro.encoding.errors import DecodeError
from repro.encoding.transmit import ArgsCodec, OutcomeCodec
from repro.sim.kernel import URGENT
from repro.sim.process import Interrupt, Process, ProcessKilled
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
        #: True from the drain's start event until the queue runs dry (a
        #: sequential group stays busy while its handler executes).
        self._busy = False
        self._stopped = False
        #: Handler processes currently executing, in start order (for
        #: orphan destruction); a dict so a completion removes its own.
        self._running: Dict[Process, None] = {}

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
        """Queue one delivered request; schedules the drain if idle."""
        if self._stopped or not self.guardian.alive:
            return
        self._queue.append((receiver, seq, port_id, args_bytes, kind, span))
        if not self._busy:
            self._busy = True
            start = self.env.event()
            start.callbacks.append(self._drain)
            start.succeed(priority=URGENT)

    def stop(self, reason: str) -> None:
        """The stream broke or was superseded: drop queued calls (they are
        'discarded automatically, so user code never needs to deal with
        them') and destroy executions already in progress — the orphan
        destruction of §4.2: "the Argus system guarantees that it will
        find these computations and destroy them later"."""
        self._stopped = True
        self._queue.clear()
        running, self._running = self._running, {}
        for process in running:
            if process.is_alive:
                process.kill("orphaned call destroyed: %s" % reason)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _drain(self, _event: Any = None) -> None:
        """Start queued calls in call order until one must be waited for.

        Each handler's first step runs here.  A sequential group resumes
        the drain from the handler's completion (:meth:`_after`).  A
        parallel group (the §2.1 override) goes straight on to the next
        call and lets the stream receiver re-serialize the outcomes:
        replies still travel in call order even though execution overlaps.
        A spawn overhead resumes the drain from its timeout
        (:meth:`_start_late`).
        """
        queue = self._queue
        while queue and not self._stopped and self.guardian.alive:
            receiver, seq, port_id, args_bytes, kind, span = queue.popleft()

            port = self.group.lookup(port_id)
            if port is None:
                # The call is an error, but the stream survives.
                receiver.post_outcome(
                    seq, Outcome.failure("handler does not exist: %s" % port_id), kind, None
                )
                continue
            try:
                args = ArgsCodec.for_type(port.handler_type).decode(args_bytes)
            except DecodeError as exc:
                # Fails this call and breaks the stream synchronously;
                # everything before it has already completed.
                receiver.decode_failure(seq, kind, exc)
                continue

            call = (receiver, seq, kind, port, span)
            overhead = self.guardian.system.process_spawn_overhead
            if overhead > 0:
                self.env.timeout(overhead).callbacks.append(
                    partial(self._start_late, call, args)
                )
                return
            if not self._start(call, args):
                return
        self._busy = False

    def _start_late(self, call: Tuple, args: tuple, _timeout: Any) -> None:
        """The spawn overhead elapsed: start the call, then drain on; a
        call orphaned (or whose guardian went) meanwhile never starts."""
        if self._stopped or not self.guardian.alive:
            self._busy = False
        elif self._start(call, args):
            self._drain()

    def _start(self, call: Tuple, args: tuple) -> bool:
        """Start one call's handler and run its first step; True if the
        drain may go on at once (a parallel group), False if it resumes
        from :meth:`_after`."""
        receiver, seq, kind, port, span = call
        process = self.guardian.spawn_handler(port, args, span=span)
        self._emit_executing(receiver, seq, port.port_id, span, process)
        self._running[process] = None
        process.run_first_step()
        if self.group.parallel:
            process.callbacks.append(partial(self._complete, call))
            return True
        process.callbacks.append(partial(self._after, call))
        return False

    def _after(self, call: Tuple, process: Process) -> None:
        """A sequential group's handler finished: post, then drain on."""
        if self._complete(call, process):
            self._drain()
        else:
            self._busy = False

    def _complete(self, call: Tuple, process: Process) -> bool:
        """Post the outcome of the finished handler *process*.

        False, and nothing posted, when the handler was killed or its call
        orphaned (no reply will be sent).  A handler interrupted while its
        call stands (``terminate``) posts ``failure``, and the drain goes on.
        """
        receiver, seq, kind, port, span = call
        self._running.pop(process, None)
        try:
            value = process.value_or_raise()
        except Signal as exc:
            outcome = Outcome.exceptional(exc)
        except (Unavailable, Failure) as exc:
            outcome = Outcome.exceptional(type(exc)(*exc.args))
        except ProcessKilled:
            return False
        except Interrupt:
            if self._stopped or not self.guardian.alive:
                return False
            outcome = Outcome.failure("handler terminated")
        except Exception as exc:  # a bug in handler code
            outcome = Outcome.failure("handler crashed: %r" % (exc,))
        else:
            outcome = Outcome.of_return(port.handler_type.returns, value, "handler")
        self._emit_completed(receiver, seq, span, outcome)
        receiver.post_outcome(seq, outcome, kind, OutcomeCodec.for_type(port.handler_type))
        return True

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
