"""The mini-Argus transcriptions of Figures 3-1 and 4-2 agree with each
other and with the Python transcriptions."""

import pytest

from repro.apps import (
    build_grades_world,
    make_roster,
    program_fig_3_1,
    program_fig_4_2,
)
from repro.apps.grades_argus import FIG_3_1_SOURCE, FIG_4_2_SOURCE
from repro.lang import load_module, run_source

from tests.conformance.apps import roster_info

#: The world both transcriptions run in: the sources' ``sleep(0.2)`` and
#: ``sleep(0.1)`` are the Python world's record and print costs.
WORLD = dict(latency=5.0, kernel_overhead=0.5)
COSTS = dict(record_cost=0.2, print_cost=0.1)

#: n -> (datagrams, sim end time) of each figure in :data:`WORLD`.
PINNED = {
    "fig31": {5: (4, 25.5), 20: (10, 29.2), 80: (17, 42.4)},
    "fig42": {5: (6, 25.5), 20: (12, 29.4), 80: (19, 42.1)},
}
FIGURES = {
    "fig31": (FIG_3_1_SOURCE, program_fig_3_1),
    "fig42": (FIG_4_2_SOURCE, program_fig_4_2),
}


def run_figure(source, roster, **system_kwargs):
    kwargs = dict(latency=1.0, kernel_overhead=0.1)
    kwargs.update(system_kwargs)
    return run_source(source, roster_info(roster), **kwargs)


def test_both_sources_type_check():
    load_module(FIG_3_1_SOURCE)
    load_module(FIG_4_2_SOURCE)


def test_fig31_argus_output():
    roster = [("amy", 90), ("bob", 80), ("cal", 70)]
    output, system = run_figure(FIG_3_1_SOURCE, roster)
    assert output == "amy 90;bob 80;cal 70;"


def test_fig42_argus_output_matches_fig31():
    roster = make_roster(8)
    out31, _sys31 = run_figure(FIG_3_1_SOURCE, roster)
    out42, _sys42 = run_figure(FIG_4_2_SOURCE, roster)
    assert out31 == out42
    assert out31.count(";") == 8


def test_argus_programs_execute_in_alphabetical_order():
    roster = make_roster(6)
    output, _system = run_figure(FIG_4_2_SOURCE, roster)
    students = [chunk.split()[0] for chunk in output.split(";") if chunk]
    assert students == sorted(students)


def test_empty_roster():
    for source in (FIG_3_1_SOURCE, FIG_4_2_SOURCE):
        output, _system = run_figure(source, [])
        assert output == ""


@pytest.mark.parametrize("figure", sorted(FIGURES))
@pytest.mark.parametrize("n_students", [5, 20, 80])
def test_interpreted_figure_costs_what_its_python_twin_does(figure, n_students):
    """Same datagrams, same end time: the interpreter adds no wire
    traffic and no simulated time to the program it runs."""
    source, program = FIGURES[figure]
    roster = make_roster(n_students)
    _output, system = run_figure(source, roster, **WORLD)

    world = build_grades_world(**WORLD, **COSTS)

    def main(ctx):
        return (yield from program(ctx, roster))

    world.system.run(until=world.client.spawn(main))
    twin = (world.system.stats()["messages_sent"], world.system.now)
    assert (system.stats()["messages_sent"], system.now) == twin
    datagrams, end = PINNED[figure][n_students]
    assert twin == (datagrams, pytest.approx(end))
