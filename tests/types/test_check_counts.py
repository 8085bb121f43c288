"""Call-count pins on what checking one reply costs.

A promise checks its outcome once, when it resolves, through checkers
compiled once per promise type (DESIGN.md section 8).  This test profiles
a 64-call records stream and pins the calls made into
``repro/types/checking.py``: per resolve, one ``check_reply`` and one
closure per result array, however long the arrays are.  No per-element
call is made, ``check_value`` is never called, and no
:class:`TypeViolation` is built, so no path string is formatted.  A change that brings back a per-element tree walk, or that
stops checking a decoded reply, fails here.
"""

import cProfile
from collections import Counter

from repro.entities import ArgusSystem
from repro.types import INT, REAL, STRING, ArrayOf, HandlerType, RecordOf
from repro.types import checking

ROW = RecordOf({"name": STRING, "score": REAL})
RECORDS = HandlerType(
    args=[INT, ArrayOf(INT), ArrayOf(ROW)],
    returns=[ArrayOf(STRING), ArrayOf(INT)],
)

CALLS = 64
INTS = 32
ROWS = 16


def run_records_stream():
    system = ArgusSystem(latency=5.0, kernel_overhead=0.5)
    server = system.create_guardian("server")

    def names_and_ints(ctx, index, ints, rows):
        return [row["name"] for row in rows], ints
        yield  # a generator even when it never blocks

    server.create_handler("records", RECORDS, names_and_ints)
    calls = [
        (k, list(range(k, k + INTS)), [{"name": "n%d" % j, "score": j / 2} for j in range(ROWS)])
        for k in range(CALLS)
    ]

    def main(ctx):
        ref = ctx.lookup("server", "records")
        promises = [ref.stream(*args) for args in calls]
        ref.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values

    process = system.create_guardian("client").spawn(main)
    profile = cProfile.Profile()
    profile.enable()
    try:
        values = system.run(until=process)
    finally:
        profile.disable()
    assert values == [([row["name"] for row in rows], ints) for _k, ints, rows in calls]
    counts = Counter()
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str) and code.co_filename == checking.__file__:
            counts[code.co_name] += entry.callcount
    return counts


def test_a_normal_reply_is_checked_without_a_per_element_walk():
    counts = run_records_stream()
    # Compiling the checkers happens once, at the first resolve.
    for once in ("compile_checker", "_build_checker", "_leaf", "<lambda>"):
        counts.pop(once, None)
    # Nothing else: no element closure, no check_value, and no
    # TypeViolation.__init__ or _rerooted, so no path string.
    assert counts == {
        "check_reply": CALLS,
        "check_array": 2 * CALLS,
    }
