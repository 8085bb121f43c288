"""Promise graphs: declarative call DAGs partitioned across sharded guardians.

The paper's streams pipeline *one* caller's calls to *one* port group; a
promise graph generalises that to a whole dataflow DAG.  The program
declares the computation once (:mod:`repro.graph.builder`), the runtime
hashes each routine's scheduling key onto a shard (:mod:`repro.graph.router`),
encodes the remaining subtree as a flat routine tree on the compiled
codecs (:mod:`repro.graph.codec`), and ships it over ordinary call
streams to execute where its data lives (:mod:`repro.graph.runtime`).
Routines that discover — from their actual inputs — that they belong on
another shard migrate by re-shipping their subtree; routines bound for
the same shard in the same epoch travel together in one ``exec`` call,
whose graph id, epoch and batching flag are typed arguments beside the
rows.
"""

from repro.graph.builder import GraphBuilder, GraphError, NodeHandle
from repro.graph.codec import (
    FLAG_COLLECTOR,
    FLAG_EMIT,
    RoutineSpec,
    TreeNode,
    register_routine,
    routine,
)
from repro.graph.router import ShardRouter, mix64
from repro.graph.runtime import (
    EXEC_HANDLER,
    EXEC_ONE_HANDLER,
    GRAPH_GROUP,
    RESULT_HANDLER,
    GraphRuntime,
)

__all__ = [
    "EXEC_HANDLER",
    "EXEC_ONE_HANDLER",
    "FLAG_COLLECTOR",
    "FLAG_EMIT",
    "GRAPH_GROUP",
    "GraphBuilder",
    "GraphError",
    "GraphRuntime",
    "NodeHandle",
    "RESULT_HANDLER",
    "RoutineSpec",
    "ShardRouter",
    "TreeNode",
    "mix64",
    "register_routine",
    "routine",
]
