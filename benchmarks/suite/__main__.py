"""``python -m benchmarks.suite`` — the same program as ``run.py``."""

from benchmarks.suite.run import main

if __name__ == "__main__":
    raise SystemExit(main())
