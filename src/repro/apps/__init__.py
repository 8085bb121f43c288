"""The paper's example applications as reusable worlds."""

from repro.apps.grades import (
    PRINT_TYPE,
    RECORD_GRADE_TYPE,
    GradesWorld,
    build_grades_world,
    make_roster,
    program_fig_3_1,
    program_fig_4_1,
    program_fig_4_2,
    program_rpc,
)
from repro.apps.grades_argus import FIG_3_1_SOURCE, FIG_4_2_SOURCE
from repro.apps.mailer import READ_MAIL_TYPE, SEND_MAIL_TYPE, build_mailer
from repro.apps.window import (
    CHANGE_COLOR_TYPE,
    CREATE_WINDOW_TYPE,
    PUTC_TYPE,
    PUTS_TYPE,
    build_window_system,
)

__all__ = [
    "CHANGE_COLOR_TYPE",
    "FIG_3_1_SOURCE",
    "FIG_4_2_SOURCE",
    "CREATE_WINDOW_TYPE",
    "GradesWorld",
    "PRINT_TYPE",
    "PUTC_TYPE",
    "PUTS_TYPE",
    "READ_MAIL_TYPE",
    "RECORD_GRADE_TYPE",
    "SEND_MAIL_TYPE",
    "build_grades_world",
    "build_mailer",
    "build_window_system",
    "make_roster",
    "program_fig_3_1",
    "program_fig_4_1",
    "program_fig_4_2",
    "program_rpc",
]
