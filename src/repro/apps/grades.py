"""The paper's running example: the grades database and printer.

Section 3.1 introduces "a guardian that stores information about the
grades of students and provides a handler, ``record_grade``, that records
a new grade for a student and returns an updated average for that student.
In addition, a second guardian provides printing of grades information via
its ``print`` operation."

This module builds that world and provides faithful transcriptions of the
paper's three programs over it:

* :func:`program_fig_3_1` — the two sequential loops of Figure 3-1;
* :func:`program_fig_4_1` — forks plus a shared promise queue (Figure 4-1);
* :func:`program_fig_4_2` — the coenter version (Figure 4-2);
* :func:`program_rpc` — the RPC-only version no figure shows but §5 uses
  as the comparison point.

All four produce identical output; the benchmarks compare their costs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.concurrency.promise_queue import PromiseQueue
from repro.core.exceptions import Signal
from repro.core.promise import Promise
from repro.entities.system import ArgusSystem
from repro.streams.config import StreamConfig
from repro.types.signatures import INT, REAL, STRING, HandlerType

__all__ = [
    "RECORD_GRADE_TYPE",
    "PRINT_TYPE",
    "GradesWorld",
    "build_grades_world",
    "make_roster",
    "program_fig_3_1",
    "program_fig_4_1",
    "program_fig_4_2",
    "program_rpc",
]

#: ``record_grade: handlertype (string, int) returns (real)``
RECORD_GRADE_TYPE = HandlerType(args=[STRING, INT], returns=[REAL])

#: ``print: handlertype (string)`` — no results, so stream calls to it go
#: as sends.
PRINT_TYPE = HandlerType(args=[STRING])


def make_roster(count: int, grade_of=lambda i: 60 + (i * 7) % 40) -> List[Tuple[str, int]]:
    """A deterministic alphabetical roster of (student, grade) pairs."""
    return [("student%04d" % i, grade_of(i)) for i in range(count)]


class GradesWorld:
    """The built world: system + guardians + observable outputs."""

    def __init__(
        self,
        system: ArgusSystem,
        record_cost: float,
        print_cost: float,
    ) -> None:
        self.system = system
        self.record_cost = record_cost
        self.print_cost = print_cost
        self.db = system.create_guardian("grades_db")
        self.printer = system.create_guardian("printer")
        self.client = system.create_guardian("client")
        self.printed: List[str] = []
        self._install_handlers()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _install_handlers(self) -> None:
        world = self

        def record_grade(ctx, student: str, grade: int):
            """Record a grade; return the student's updated average."""
            if world.record_cost > 0:
                yield ctx.compute(world.record_cost)
            table: Dict[str, List[int]] = ctx.guardian.state.setdefault("grades", {})
            table.setdefault(student, []).append(grade)
            marks = table[student]
            return sum(marks) / len(marks)

        def print_line(ctx, line: str):
            """Print one line (externally visible side effect)."""
            if world.print_cost > 0:
                yield ctx.compute(world.print_cost)
            world.printed.append(line)
            return None

        self.db.create_handler("record_grade", RECORD_GRADE_TYPE, record_grade)
        self.printer.create_handler("print", PRINT_TYPE, print_line)

    def recorded_averages(self) -> Dict[str, float]:
        """Current per-student averages held by the database guardian."""
        table = self.db.state.get("grades", {})
        return {s: sum(m) / len(m) for s, m in table.items()}


def build_grades_world(
    latency: float = 1.0,
    kernel_overhead: float = 0.1,
    record_cost: float = 0.2,
    print_cost: float = 0.1,
    stream_config: Optional[StreamConfig] = None,
    **system_kwargs: Any,
) -> GradesWorld:
    """Construct the three-guardian grades world on a fresh system.

    This world is the paper-replication scenario (Fig 3-1 / E3) whose
    wire-message counts and golden trace are pinned under the default
    stream config.
    """
    system = ArgusSystem(
        latency=latency,
        kernel_overhead=kernel_overhead,
        stream_config=stream_config,
        **system_kwargs,
    )
    return GradesWorld(system, record_cost, print_cost)


def _format_line(student: str, average: float) -> str:
    """The paper's ``make_string(stu, average)``."""
    return "%s %.2f" % (student, average)


# ----------------------------------------------------------------------
# Figure 3-1: two sequential loops over two streams
# ----------------------------------------------------------------------
def program_fig_3_1(ctx, grades: Sequence[Tuple[str, int]], step_cost: float = 0.0):
    """``yield from``-able transcription of Figure 3-1.

    *step_cost* models the client CPU spent per loop iteration (argument
    preparation, encoding, ``make_string``); §4's point that "we cannot
    begin printing results until all calls to the grades database have
    been initiated" only has weight when initiating calls costs the
    caller something.
    """
    record_grade = ctx.lookup("grades_db", "record_grade")
    print_port = ctx.lookup("printer", "print")

    # % record grades
    averages: List[Promise] = []
    for student, grade in grades:  # for s: sinfo in info$elements(grades)
        if step_cost > 0:
            yield ctx.compute(step_cost)
        averages.append(record_grade.stream(student, grade))  # averages$addh
    record_grade.flush()  # flush record_grade

    # % print
    for index in range(len(averages)):  # for i: int in averages$indexes(a)
        average = yield averages[index].claim()  # pt$claim(a[i])
        if step_cost > 0:
            yield ctx.compute(step_cost)
        print_port.stream_statement(_format_line(grades[index][0], average))
    yield print_port.synch()  # synch print
    return len(grades)


# ----------------------------------------------------------------------
# Figure 4-1: forks communicating through a shared promise queue
# ----------------------------------------------------------------------
def program_fig_4_1(ctx, grades: Sequence[Tuple[str, int]], step_cost: float = 0.0):
    """``yield from``-able transcription of Figure 4-1.

    As the paper notes, this version has a *termination problem*: if the
    recording fork dies early, the printing fork can hang in ``deq``.  We
    reproduce the program as written (the queue is closed by ``use_db``
    only on its own failure path, mirroring the explicit cleanup a careful
    programmer would add; the benchmark of the *uncareful* version is in
    the E12 coenter benchmark).
    """
    aveq = PromiseQueue(ctx.env)

    def use_db(fctx, roster):
        record_grade = fctx.lookup("grades_db", "record_grade")
        try:
            for student, grade in roster:
                if step_cost > 0:
                    yield fctx.compute(step_cost)
                yield aveq.enq(record_grade.stream(student, grade))
            record_grade.flush()
            yield record_grade.synch()
        except Exception as exc:
            aveq.close(exc)  # without this, do_print hangs forever
            raise Signal("cannot_record")

    def do_print(fctx, roster):
        print_port = fctx.lookup("printer", "print")
        try:
            for index in range(len(roster)):
                promise = yield aveq.deq()
                average = yield promise.claim()
                if step_cost > 0:
                    yield fctx.compute(step_cost)
                print_port.stream_statement(
                    _format_line(roster[index][0], average)
                )
            yield print_port.synch()
        except Exception:
            raise Signal("cannot_print")

    p1 = ctx.fork(use_db, list(grades))
    p2 = ctx.fork(do_print, list(grades))
    yield p1.claim()
    yield p2.claim()
    return len(grades)


# ----------------------------------------------------------------------
# Figure 4-2: the coenter
# ----------------------------------------------------------------------
def program_fig_4_2(
    ctx,
    grades: Sequence[Tuple[str, int]],
    atomic: bool = False,
    step_cost: float = 0.0,
):
    """``yield from``-able transcription of Figure 4-2."""
    co = ctx.coenter()
    aveq = PromiseQueue(ctx.env)
    co.guard_queue(aveq.raw)

    def recording_arm(actx):
        record_grade = actx.lookup("grades_db", "record_grade")
        for student, grade in grades:
            if step_cost > 0:
                yield actx.compute(step_cost)
            yield aveq.enq(record_grade.stream(student, grade))
        record_grade.flush()
        yield record_grade.synch()

    def printing_arm(actx):
        print_port = actx.lookup("printer", "print")
        for index in range(len(grades)):
            promise = yield aveq.deq()
            average = yield promise.claim()
            if step_cost > 0:
                yield actx.compute(step_cost)
            print_port.stream_statement(_format_line(grades[index][0], average))
        yield print_port.synch()

    co.arm(recording_arm, atomic=atomic)
    co.arm(printing_arm, atomic=atomic)
    yield co.run()
    return len(grades)


# ----------------------------------------------------------------------
# RPC-only comparison (the §5 "Ada/SR" shape)
# ----------------------------------------------------------------------
def program_rpc(ctx, grades: Sequence[Tuple[str, int]], step_cost: float = 0.0):
    """Strictly synchronous version: every call waits for its reply."""
    record_grade = ctx.lookup("grades_db", "record_grade")
    print_port = ctx.lookup("printer", "print")
    for student, grade in grades:
        if step_cost > 0:
            yield ctx.compute(2 * step_cost)  # both calls prepared here
        average = yield record_grade.call(student, grade)
        yield print_port.call(_format_line(student, average))
    return len(grades)
