"""Open-loop load harness: million-agent traffic against simulated worlds.

See :mod:`benchmarks.load.arrivals` for the traffic models (Poisson and
heavy-tailed Pareto arrivals, constant-memory Zipf popularity),
:mod:`benchmarks.load.harness` for the workload topologies and the
open-loop driver, and :mod:`benchmarks.load.run_load` for the CLI that
runs the stepped-rate SLO search and writes the load report.
"""
