"""Benchmark for the extraction pipeline: seeded workloads, timed Ray runs,
an output check and a traced single-thread layer profile (see README.md)."""
