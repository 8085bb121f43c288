"""GraphBuilder: typed edges, collectors, and the freeze to routine trees."""

import pytest

from repro.graph import FLAG_COLLECTOR, FLAG_EMIT, GraphBuilder, GraphError

from . import helpers  # noqa: F401  (registers the t.* routines)


def test_then_checks_the_type_row():
    g = GraphBuilder()
    a = g.source("t.add", captures=("k", 1), sched_key=0)
    b = a.then("t.scale", captures=(2,))
    assert b.sched_key == a.sched_key  # inherited placement
    with pytest.raises(GraphError):
        a.then("t.add", captures=("k", 1))  # t.add takes no inputs


def test_source_must_not_declare_inputs():
    with pytest.raises(GraphError):
        GraphBuilder().source("t.scale", captures=(2,))


def test_capture_arity_is_checked():
    with pytest.raises(GraphError):
        GraphBuilder().source("t.add", captures=("k",))


def test_collector_arity_and_ownership():
    g = GraphBuilder()
    a = g.source("t.add", captures=("a", 1))
    b = g.source("t.add", captures=("b", 1))
    with pytest.raises(GraphError):
        g.collect("t.sum", inputs=[a])  # a join needs two inputs
    other = GraphBuilder()
    c = other.source("t.add", captures=("c", 1))
    with pytest.raises(GraphError):
        g.collect("t.sum", inputs=[a, c])  # c belongs to another builder
    s = g.collect("t.sum", inputs=[a, b], sched_key=7)
    assert s.n_inputs == 2


def test_empty_graph_does_not_compile():
    with pytest.raises(GraphError):
        GraphBuilder().compile()


def test_leaves_auto_emit_with_default_tags():
    g = GraphBuilder()
    a = g.source("t.add", captures=("k", 1), sched_key=3)
    a.then("t.scale", captures=(2,))  # leaf, no explicit emit
    roots, emits = g.compile()
    assert len(roots) == 1
    tags = {tag for _id, tag, _spec in emits}
    assert tags == {"t.scale#1"}  # "<name>#<node_id>" default
    (root,) = roots
    assert not root.wants_emit
    ((slot, child),) = root.children
    assert slot == 0 and child.wants_emit and child.flags & FLAG_EMIT


def test_fan_out_and_explicit_tags():
    g = GraphBuilder()
    a = g.source("t.add", captures=("k", 1), sched_key=0).emit("root")
    a.then("t.scale", captures=(2,)).emit("x2")
    a.then("t.scale", captures=(3,), sched_key=9).emit("x3")
    roots, emits = g.compile()
    assert [tag for _id, tag, _spec in emits] == ["root", "x2", "x3"]
    (root,) = roots
    assert len(root.children) == 2
    assert {child.sched_key for _slot, child in root.children} == {0, 9}


def test_shared_collector_is_duplicated_under_each_parent():
    g = GraphBuilder()
    a = g.source("t.add", captures=("a", 1), sched_key=1)
    b = g.source("t.add", captures=("b", 1), sched_key=2)
    s = g.collect("t.sum", inputs=[a, b], sched_key=5).emit("sum")
    roots, _emits = g.compile()
    assert len(roots) == 2  # the collector is not a root
    copies = [child for root in roots for _slot, child in root.children]
    assert len(copies) == 2
    assert copies[0] is copies[1]  # one frozen node, shared under both
    assert copies[0].node_id == s.node_id
    assert copies[0].flags & FLAG_COLLECTOR
    slots = sorted(slot for root in roots for slot, _child in root.children)
    assert slots == [0, 1]  # each parent feeds its own input slot
