"""E11 — promise-based binary tree: parallel insertion and search (§3.2).

Paper claim: "promises can be used for parallel insertion and searching of
elements in a binary tree in which the nodes of the tree are promises.  If
a search reaches a node that cannot be claimed yet, it waits until the
promise is ready."

Reproduced series: completion time of k searchers overlapped with the
inserter (promise tree: searches proceed as the frontier materializes) vs
the sequential alternative (search only after all insertions), sweeping
tree size.
"""

from repro.concurrency import PromiseTree
from repro.entities import ArgusSystem

from .conftest import report

INSERT_COST = 0.1


def shuffled_keys(n, seed=7):
    import random

    keys = list(range(n))
    random.Random(seed).shuffle(keys)
    return keys


def search_targets(keys, n_searchers):
    """Keys spread evenly through the insertion order (25%, 50%, ...)."""
    step = len(keys) // n_searchers
    return [keys[(index + 1) * step - 1] for index in range(n_searchers)]


def run_promise_tree(n_keys, n_searchers):
    """Searches run concurrently with the inserter; each completes as
    soon as its key is inserted."""
    system = ArgusSystem()
    tree = PromiseTree(system.env)
    keys = shuffled_keys(n_keys)
    targets = search_targets(keys, n_searchers)
    client = system.create_guardian("client")
    completion_times = []

    def inserter(ctx):
        for key in keys:
            yield ctx.sleep(INSERT_COST)
            tree.insert(key, "value%d" % key)

    def searcher(ctx, key):
        value = yield from tree.search(key)
        completion_times.append(ctx.now)
        return value

    client.spawn(inserter)
    processes = [client.spawn(searcher, key) for key in targets]
    for process in processes:
        system.run(until=process)
    assert all(p.value == "value%d" % key for p, key in zip(processes, targets))
    return sum(completion_times) / len(completion_times), max(completion_times)


def run_sequential(n_keys, n_searchers):
    """Baseline: build the whole tree, then search — every search
    completes only after the full build."""
    system = ArgusSystem()
    tree = PromiseTree(system.env)
    keys = shuffled_keys(n_keys)
    targets = search_targets(keys, n_searchers)
    client = system.create_guardian("client")
    completion_times = []

    def all_work(ctx):
        for key in keys:
            yield ctx.sleep(INSERT_COST)
            tree.insert(key, "value%d" % key)
        found = []
        for key in targets:
            node = tree.try_search(key)
            completion_times.append(ctx.now)
            found.append(node.value)
        return found

    process = client.spawn(all_work)
    found = system.run(until=process)
    assert found == ["value%d" % key for key in targets]
    return sum(completion_times) / len(completion_times), max(completion_times)


def test_e11_promise_tree(benchmark):
    rows = []
    for n_keys in (32, 128, 512):
        seq_mean, seq_max = run_sequential(n_keys, n_searchers=4)
        ovl_mean, ovl_max = run_promise_tree(n_keys, n_searchers=4)
        rows.append((n_keys, seq_mean, ovl_mean, seq_mean / ovl_mean, seq_max, ovl_max))
    report(
        "E11",
        "promise tree: mean search completion, overlapped vs build-then-search",
        ["keys", "seq_mean", "overlap_mean", "speedup", "seq_max", "overlap_max"],
        rows,
    )
    for row in rows:
        # Searches complete as their keys appear: mean completion is much
        # earlier than waiting for the full build (~1.6x for evenly
        # spread targets), and never later.
        assert row[3] > 1.3
        assert row[5] <= row[4] + 1e-9

    benchmark(run_promise_tree, 128, 4)
