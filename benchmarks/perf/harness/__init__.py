"""Wall-clock perf benchmark harness for the DUET reproduction.

Everything here drives the program through its public API only and
times it from the outside; see ``benchmarks/perf/README.md``.
"""
