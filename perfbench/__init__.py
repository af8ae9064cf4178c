"""Benchmark for tsmkit; see README.md in this directory."""
