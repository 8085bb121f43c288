"""The benchmark suite: eight workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory.  Everything here uses only the
public ``repro.*`` API; nothing is imported from ``benchmarks.perf`` or
``benchmarks.load``.
"""
