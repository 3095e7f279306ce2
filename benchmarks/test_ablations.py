"""Benchmarks: ablations of MD-GAN design choices.

These go beyond the paper's figures and quantify the two knobs discussed in
the text (Sections IV-B4 and IV-C1) plus the Section VII extensions:

* the number of generated batches ``k`` (data diversity vs server workload),
* the discriminator swap period ``E`` (overfitting mitigation vs W<->W traffic),
* asynchronous aggregation (``aggregation="async"``, bound ``N - 1``) and
  partial worker participation (``participation_fraction``), both
  ``TrainingConfig`` modes.
"""

import numpy as np
import pytest

from conftest import record_rows

from repro.experiments import (
    run_ablation_extensions,
    run_ablation_k,
    run_ablation_swap,
)

pytestmark = pytest.mark.slow  # heavy convergence run; excluded from the fast lane


@pytest.mark.paper_artifact("section4b4")
def test_ablation_k_diversity_tradeoff(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_ablation_k, kwargs=dict(scale=bench_scale), rounds=1, iterations=1
    )
    record_rows(benchmark, result)
    rows = sorted(result.rows, key=lambda r: r["k"])
    assert all(np.isfinite(r["fid"]) for r in rows)
    # Server workload (flops charged for batch generation + updates) grows with k.
    flops = [r["server_flops"] for r in rows]
    assert all(b >= a for a, b in zip(flops, flops[1:]))
    print()
    print(result.to_text())


@pytest.mark.paper_artifact("section4c1")
def test_ablation_swap_period(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_ablation_swap, kwargs=dict(scale=bench_scale), rounds=1, iterations=1
    )
    record_rows(benchmark, result)
    by_e = {str(r["epochs_per_swap"]): r for r in result.rows}
    # Disabling swapping removes all worker-to-worker traffic.
    assert by_e["inf"]["swap_bytes"] == 0.0
    assert by_e["inf"]["swaps"] == 0
    # More frequent swapping means at least as many swap rounds as less frequent.
    assert by_e["1.0"]["swaps"] >= by_e["5.0"]["swaps"]
    assert all(np.isfinite(r["fid"]) for r in result.rows)
    print()
    print(result.to_text())


@pytest.mark.paper_artifact("section7")
def test_ablation_extensions(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_ablation_extensions, kwargs=dict(scale=bench_scale), rounds=1, iterations=1
    )
    record_rows(benchmark, result)
    variants = {r["variant"]: r for r in result.rows}
    assert "md-gan" in variants and "md-gan-async" in variants
    sampled = next(v for name, v in variants.items() if "sampled" in name)
    # Partial participation ships fewer bytes than full participation.
    assert sampled["total_bytes"] < variants["md-gan"]["total_bytes"]
    assert all(np.isfinite(r["fid"]) for r in result.rows)
    print()
    print(result.to_text())
