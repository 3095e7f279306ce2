"""Benchmark: regenerate Table III (communication complexities).

Also cross-checks the analytic formulas against the traffic the trainers
charge to the cluster's Table III meter — the same code path that produces
the Figure 3 results.
"""

import pytest

from conftest import record_rows

from repro.experiments import run_table3, run_traffic_check


@pytest.mark.paper_artifact("table3")
def test_table3_analytic(benchmark):
    result = benchmark(run_table3)
    record_rows(benchmark, result)

    by_key = {(r["architecture"], r["communication"]): r for r in result.rows}
    # FL-GAN worker<->server traffic depends only on model size; MD-GAN's
    # depends on b and d.  At b=10 MD-GAN is far cheaper per round for the
    # MNIST MLP (the paper's motivating case).
    mlp_update = by_key[("mnist-mlp", "worker_to_server_at_worker")]
    assert mlp_update["mdgan"] < 0.1 * mlp_update["flgan"]
    # MD-GAN communicates every iteration; FL-GAN only every m E / b iterations.
    rounds = by_key[("mnist-mlp", "num_server_worker_rounds")]
    assert rounds["mdgan"] > rounds["flgan"]

    print()
    print(result.to_text())


@pytest.mark.paper_artifact("table3")
def test_table3_measured_vs_analytic(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_traffic_check, kwargs=dict(scale=bench_scale), rounds=1, iterations=1
    )
    record_rows(benchmark, result)
    for row in result.rows:
        if row["quantity"].startswith(("swap", "resident")):
            # swap rows cover a different boundary; the resident rows are
            # *measured* transport payloads (pickle overhead, object-graph
            # dedup below k = N), pinned in benchmarks/test_socket_transport.py
            # under an exact geometry instead of asserted at ratio 1 here.
            continue
        if "bytes" in row["quantity"]:
            assert row["ratio"] == pytest.approx(1.0, rel=1e-6), row
    print()
    print(result.to_text())
