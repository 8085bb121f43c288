"""The ``coenter`` statement (§4.2).

    "A coenter statement contains a number of arms, each defining a
     computation to be run as a process. ... The process executing the
     coenter is halted, and remains halted until all the subprocesses
     complete. ... a subprocess can cause other subprocesses to terminate
     early.  It does this by causing a control transfer outside of the
     coenter."

Semantics implemented here:

* every arm runs as its own process with its own agent;
* if an arm raises an exception, every other arm is *terminated* —
  respecting critical sections via the wounding mechanism of
  :mod:`repro.concurrency.critical`;
* shared queues registered with :meth:`Coenter.guard_queue` are closed on
  early termination, so no sibling can hang in ``deq`` (the Figure 4-1
  termination problem);
* the parent resumes only after all arms have actually finished, and then
  the first exception (if any) propagates to it — "control will continue
  in the parent process at the except statement";
* optionally each arm runs as an atomic action that aborts on early
  termination (the paper runs both grades arms "as actions").

A dynamic number of arms is supported (the paper: "Argus provides such a
mechanism, which extends the coenter to allow a dynamic number of
processes") — add one arm per work item with :meth:`arm_each`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List

from repro.sim.events import Event
from repro.sim.process import Interrupt, Process, ProcessKilled
from repro.sim.sync import BlockingQueue
from repro.concurrency.critical import terminate

__all__ = ["Coenter", "CoenterTerminated"]


class CoenterTerminated(Exception):
    """Interrupt cause delivered to arms terminated by a sibling failure."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> BaseException:
        return self.args[0]


class _Arm:
    __slots__ = ("procedure", "args", "label", "atomic")

    def __init__(self, procedure: Callable, args: tuple, label: str, atomic: bool) -> None:
        self.procedure = procedure
        self.args = args
        self.label = label
        self.atomic = atomic


class Coenter:
    """Builder/executor for one coenter statement.

    Usage inside a simulated process::

        co = ctx.coenter()
        co.arm(record_arm, grades)
        co.arm(print_arm, grades)
        results = yield co.run()      # raises the first arm exception
    """

    def __init__(self, ctx: Any) -> None:
        self.ctx = ctx
        self.env = ctx.env
        self._arms: List[_Arm] = []
        self._queues: List[BlockingQueue] = []
        self._started = False

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def arm(
        self,
        procedure: Callable,
        *args: Any,
        label: str = "",
        atomic: bool = False,
    ) -> "Coenter":
        """Add an arm: ``procedure(arm_ctx, *args)`` run as a subprocess.

        With ``atomic=True`` the arm runs as an atomic action that commits
        on normal completion and aborts on failure or early termination.
        """
        if self._started:
            raise RuntimeError("coenter already running")
        self._arms.append(
            _Arm(procedure, args, label or getattr(procedure, "__name__", "arm"), atomic)
        )
        return self

    def arm_each(
        self,
        procedure: Callable,
        items: Iterable[Any],
        label: str = "",
        atomic: bool = False,
    ) -> "Coenter":
        """Dynamic arms: one per item (process-per-item composition, §4.3)."""
        for index, item in enumerate(items):
            self.arm(
                procedure,
                item,
                label="%s[%d]" % (label or getattr(procedure, "__name__", "arm"), index),
                atomic=atomic,
            )
        return self

    def guard_queue(self, queue: BlockingQueue) -> BlockingQueue:
        """Register a shared queue to be closed if the coenter terminates
        early, so no arm hangs in ``deq`` forever."""
        self._queues.append(queue)
        return queue

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Event:
        """Start all arms; returns a yieldable event.

        The event succeeds with the list of arm results (in arm order)
        once every arm finished normally; it fails with the first arm
        exception after all other arms have been terminated and finished.
        """
        if self._started:
            raise RuntimeError("coenter already running")
        self._started = True
        done = Event(self.env)
        if not self._arms:
            done.succeed([])
            return done

        state = {
            "failure": None,
            "remaining": len(self._arms),
        }
        results: List[Any] = [None] * len(self._arms)
        processes: List[Process] = []
        arm_contexts: List[Any] = []

        def finish() -> None:
            if state["failure"] is not None:
                done.defused = True
                done.fail(state["failure"])
            else:
                done.succeed(list(results))

        def on_arm_done(index: int, event: Event) -> None:
            if event.ok:
                results[index] = event.value
            else:
                exc = event.value
                event.defused = True
                if not isinstance(exc, (Interrupt, ProcessKilled)):
                    if state["failure"] is None:
                        state["failure"] = exc
                        self._terminate_others(processes, arm_contexts, exc)
            state["remaining"] -= 1
            if state["remaining"] == 0:
                finish()

        # Creating processes burdens the system (§4.3); arms start
        # staggered by the configured per-process overhead.
        spawn_overhead = getattr(self.ctx.system, "process_spawn_overhead", 0.0)
        # Arms inherit the coenter'ing process's causal span (tracing
        # only): calls an arm makes nest under the span the parent was
        # running in, keeping the whole coenter one call tree.
        parent_span = None
        if self.env.tracer is not None and self.env.active_process is not None:
            parent_span = self.env.active_process.span
        for index, arm in enumerate(self._arms):
            arm_ctx = self.ctx.spawn_context(arm.label)
            arm_contexts.append(arm_ctx)
            process = self.env.process(
                self._run_arm(arm, arm_ctx, index * spawn_overhead)
            )
            if parent_span is not None:
                process.span = parent_span
            self.ctx.guardian._track(process)
            processes.append(process)

            def hook(event: Event, index: int = index) -> None:
                on_arm_done(index, event)

            if process.triggered:
                hook(process)
            else:
                process.callbacks.append(hook)
        return done

    def _run_arm(self, arm: _Arm, arm_ctx: Any, start_delay: float = 0.0):
        """The generator actually run as the arm's process."""
        if start_delay > 0:
            yield self.env.timeout(start_delay)
        if arm.atomic:
            from repro.transactions.action import run_as_action

            result = yield from run_as_action(arm_ctx, arm.procedure, *arm.args)
        else:
            result = yield from arm.procedure(arm_ctx, *arm.args)
        return result

    def _terminate_others(
        self,
        processes: List[Process],
        arm_contexts: List[Any],
        exc: BaseException,
    ) -> None:
        """Terminate sibling arms (critical-section aware), close guarded
        queues so nothing hangs, and abandon the arms' streams so remote
        orphans are found and destroyed (§4.2: "we do not wait to
        terminate any calls that may be running elsewhere")."""
        for queue in self._queues:
            queue.close("coenter terminated: %s" % (exc,))
        for process, arm_ctx in zip(processes, arm_contexts):
            if process.is_alive and process is not self.env.active_process:
                terminate(process, CoenterTerminated(exc))
            self.ctx.guardian.endpoint.abandon_agent(arm_ctx.agent)
