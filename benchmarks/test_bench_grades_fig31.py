"""E3 — Figure 3-1: the grades program vs the RPC-only version.

Paper claim (§3.1): "This example uses stream calls both to overlap
processing of calls and to obtain the benefits of buffering messages for
calls and replies.  A considerable amount of overlapping is possible."

Reproduced series: completion time of the RPC grades program vs the
Figure 3-1 program, sweeping the roster size.
"""

from repro.apps import build_grades_world, make_roster, program_fig_3_1, program_rpc

from .conftest import report

WORLD_PARAMS = dict(latency=5.0, kernel_overhead=0.5, record_cost=0.3, print_cost=0.1)


def run_program(program, n_students):
    world = build_grades_world(**WORLD_PARAMS)
    roster = make_roster(n_students)

    def main(ctx):
        count = yield from program(ctx, roster)
        return count

    process = world.client.spawn(main)
    world.system.run(until=process)
    assert len(world.printed) == n_students
    return world.system.now, world.system.stats()["messages_sent"]


def test_e3_fig31_vs_rpc(benchmark):
    rows = []
    for n_students in (5, 20, 80):
        rpc_time, rpc_messages = run_program(program_rpc, n_students)
        fig_time, fig_messages = run_program(program_fig_3_1, n_students)
        rows.append(
            (n_students, rpc_time, fig_time, rpc_time / fig_time, rpc_messages, fig_messages)
        )
    report(
        "E3",
        "grades: RPC version vs Figure 3-1 (time, messages)",
        ["students", "rpc_time", "fig31_time", "speedup", "rpc_msgs", "fig31_msgs"],
        rows,
    )
    by_n = {row[0]: row for row in rows}
    assert by_n[20][3] > 10.0, "Fig 3-1 should beat RPC clearly at n=20"
    assert by_n[80][3] > by_n[20][3] > by_n[5][3], "advantage grows with roster size"
    # The RPC baseline pays for what it asks, no more: two RPCs a student,
    # a request and a reply each, and not one spurious retransmission.
    assert all(row[4] == 4 * row[0] for row in rows)
    assert by_n[80][5] < by_n[80][4] / 10, "buffering should slash message count"

    benchmark(run_program, program_fig_3_1, 40)
