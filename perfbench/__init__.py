"""Benchmark of the LOCATER reproduction: run with ``python3 perfbench/run.py``."""
