"""Only ``repro.core.promise`` knows the inside of a promise.

Every other layer consumes a promise through its public surface —
``claim``, ``ready``, ``outcome``, ``resolve``, ``on_resolved`` and the
``when_*`` continuations (DESIGN.md §12).  A file under ``src/`` outside
``core/promise.py`` that names one of the promise's private members on
anything but ``self`` fails here.  ``self._pending`` in the stream sender
or the graph runtime is that class's own field, and ``dst._deliver`` /
``node._deliver`` is the network node's delivery hook (``repro.net``),
not a promise member.
"""

import glob
import os
import re

from repro.core import Promise

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PROMISE_FILE = os.path.join(ROOT, "src", "repro", "core", "promise.py")
PRIVATE = ("_pending", "_subscribe", "_unwrap", "_deliver", "_chain", "_settle", "_coerce")
NAMED = re.compile(r"\b(\w+)\.(%s)\b" % "|".join(PRIVATE))
NODE_HOOKS = {("dst", "_deliver"), ("node", "_deliver")}


def test_guard_names_the_members_that_exist():
    for name in ("_pending", "_deliver", "_chain", "_settle", "_coerce"):
        assert hasattr(Promise, name), name
    for name in ("_subscribe", "_unwrap", "_waiters", "_continuations", "on_ready"):
        assert not hasattr(Promise, name), name


def test_promise_privates_are_named_only_inside_core_promise():
    scanned, offenders = 0, []
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        if path == PROMISE_FILE:
            continue
        scanned += 1
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                for receiver, name in NAMED.findall(line):
                    if receiver != "self" and (receiver, name) not in NODE_HOOKS:
                        offenders.append(
                            "%s:%d: %s" % (os.path.relpath(path, ROOT), number, line.strip())
                        )
    assert scanned > 50, "the glob stopped matching anything"
    assert not offenders, "\n".join(offenders)
