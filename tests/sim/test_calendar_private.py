"""Only ``repro.sim`` knows the inside of the calendar.

Every other layer schedules through ``Environment.call_at`` /
``call_soon`` / ``schedule`` (DESIGN.md §8, §14: "the seam is one object
wide").  A file under ``src/`` outside ``src/repro/sim/`` that names the
calendar's containers fails here — reading ``env._now`` stays allowed.
"""

import glob
import os
import re

from repro.sim import Environment

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SIM = os.path.join(ROOT, "src", "repro", "sim") + os.sep
CONTAINERS = ("_times", "_lanes", "_urgent")
NAMED = re.compile(r"\b(?:%s)\b" % "|".join(CONTAINERS))


def test_guard_names_the_attributes_that_exist():
    env = Environment()
    for name in CONTAINERS:
        assert isinstance(getattr(env, name), (list, dict))


def test_calendar_containers_are_named_only_inside_repro_sim():
    scanned, offenders = 0, []
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        if path.startswith(SIM):
            continue
        scanned += 1
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                if NAMED.search(line):
                    offenders.append(
                        "%s:%d: %s" % (os.path.relpath(path, ROOT), number, line.strip())
                    )
    assert scanned > 50, "the glob stopped matching anything"
    assert not offenders, "\n".join(offenders)
