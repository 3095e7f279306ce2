"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The run
scale defaults to the fast ``smoke`` preset so the whole suite finishes in a
few minutes on CPU; set the ``REPRO_BENCH_SCALE`` environment variable to
``small`` (or ``paper``) for higher-fidelity runs.

Benchmark results (who wins, final scores, crossover points) are attached to
``benchmark.extra_info`` so they appear in ``--benchmark-json`` exports and
can be compared against the paper's reported trends.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import get_scale


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_artifact(name): marks which table/figure a benchmark regenerates"
    )


@pytest.fixture(scope="session")
def bench_scale():
    """Experiment scale used by all training benchmarks."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "smoke"))


def record_rows(benchmark, result, max_rows: int = 40) -> None:
    """Attach an ExperimentResult's rows and notes to the benchmark record."""
    benchmark.extra_info["experiment"] = result.name
    benchmark.extra_info["rows"] = result.rows[:max_rows]
    benchmark.extra_info["notes"] = result.notes
