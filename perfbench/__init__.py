"""Benchmark harness for dualvt; run with ``python3 -m perfbench --help``."""
