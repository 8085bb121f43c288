"""Only ``repro.streams`` knows the inside of a stream's two ends.

Every other layer drives a :class:`StreamSender` or
:class:`StreamReceiver` through its public surface (``stream_call``,
``flush``, ``synch``, ``restart``, ``has_outstanding``, ``on_reply``,
``on_call_packet``, ``post_outcome``, ...).  A file under ``src/``
outside ``streams/`` that names one of their private members on anything
but ``self`` fails here.  ``dst._deliver`` / ``node._deliver`` is the
network node's delivery hook (``repro.net``), not the receiver's method
of the same name.
"""

import glob
import inspect
import os
import re

from repro.streams import StreamReceiver, StreamSender

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
STREAMS_DIR = os.path.join(ROOT, "src", "repro", "streams") + os.sep
NODE_HOOKS = {("dst", "_deliver"), ("node", "_deliver")}


def _private_members():
    """Every ``self._name`` the two classes define or read."""
    names = set()
    for cls in (StreamSender, StreamReceiver):
        names.update(re.findall(r"\bself\.(_[a-z]\w*)", inspect.getsource(cls)))
    return names


def test_guard_names_the_members_that_exist():
    private = _private_members()
    for name in ("_unacked", "_buffer", "_ready", "_has_unresolved", "_resend", "_flush_replies"):
        assert name in private, name
    assert callable(StreamSender.has_outstanding)


def test_stream_privates_are_named_only_inside_streams():
    named = re.compile(r"\b(\w+)\.(%s)\b" % "|".join(sorted(_private_members())))
    scanned, offenders = 0, []
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        if path.startswith(STREAMS_DIR):
            continue
        scanned += 1
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                for receiver, name in named.findall(line):
                    if receiver != "self" and (receiver, name) not in NODE_HOOKS:
                        offenders.append(
                            "%s:%d: %s" % (os.path.relpath(path, ROOT), number, line.strip())
                        )
    assert scanned > 50, "the glob stopped matching anything"
    assert not offenders, "\n".join(offenders)
