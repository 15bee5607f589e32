"""Benchmark harness for hallforge; see README.md in this directory."""
