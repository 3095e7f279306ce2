"""The repo's performance benchmark: calibrated end-to-end metrics and a per-layer trace.

See ``perf/README.md``.  Nothing here is imported by ``repro``; the harness
measures the program from outside, through its public callables and meters.
"""
