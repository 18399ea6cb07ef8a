"""Workloads, tracing and checks of the repro benchmark (see ../README.md)."""
