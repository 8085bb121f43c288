"""E4 — composing the grades streams: Fig 3-1 vs Fig 4-1 vs Fig 4-2.

Paper claim (§4): "the program shown in Figure 3-1 does not do what we
want since it delays streaming to the printer until all calls to the
database have been started.  Instead, we would like to stream the results
from the database to the printer as they become ready ...  Obviously, this
overlapping of recording and printing becomes more important as the number
of calls increases."

Reproduced series: completion time of the three structures, sweeping the
roster size; the composed versions (4-1, 4-2) must converge to the same
cost and beat 3-1, increasingly with n.
"""

from repro.apps import (
    build_grades_world,
    make_roster,
    program_fig_3_1,
    program_fig_4_1,
    program_fig_4_2,
)

from .conftest import report

WORLD_PARAMS = dict(latency=5.0, kernel_overhead=0.2, record_cost=0.5, print_cost=0.4)

#: Client CPU per loop iteration (argument preparation / make_string):
#: the quantity that makes Figure 3-1's initiate-everything-first barrier
#: cost real time.
STEP_COST = 0.4


def run_program(program, n_students):
    world = build_grades_world(**WORLD_PARAMS)
    roster = make_roster(n_students)

    def main(ctx):
        count = yield from program(ctx, roster, step_cost=STEP_COST)
        return count

    process = world.client.spawn(main)
    world.system.run(until=process)
    assert len(world.printed) == n_students
    return world.system.now


def test_e4_composition_overlap(benchmark):
    rows = []
    for n_students in (5, 20, 80, 160):
        t31 = run_program(program_fig_3_1, n_students)
        t41 = run_program(program_fig_4_1, n_students)
        t42 = run_program(program_fig_4_2, n_students)
        rows.append((n_students, t31, t41, t42, t31 / t42))
    report(
        "E4",
        "grades composition: Fig 3-1 vs forks (4-1) vs coenter (4-2)",
        ["students", "fig31", "fig41_forks", "fig42_coenter", "fig31/fig42"],
        rows,
    )
    by_n = {row[0]: row for row in rows}
    # Composition wins, and more so as n grows ("this overlapping ...
    # becomes more important as the number of calls increases").
    # Measured 1.000 / 1.096 / 1.269 at n = 20 / 80 / 160.
    assert by_n[80][4] > 1.05
    assert by_n[160][4] > 1.25
    assert by_n[160][4] > by_n[80][4] > by_n[20][4]
    # Forks and coenter express the same overlap: near-identical cost.
    for row in rows:
        assert abs(row[2] - row[3]) / row[3] < 0.25

    benchmark(run_program, program_fig_4_2, 40)
