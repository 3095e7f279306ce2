"""Tests for the experiment runners (tables, figures, ablations).

Training-based runners are exercised at a micro scale (a handful of
iterations) — the goal here is to validate wiring, result structure and
invariants, not score quality (that is what the benchmark harness measures).
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentScale,
    SMOKE,
    format_table,
    get_scale,
    paper_architecture_params,
    run_ablation_extensions,
    run_ablation_k,
    run_ablation_swap,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_staleness_sweep,
    run_table2,
    run_table3,
    run_table4,
    run_traffic_check,
)

#: Micro scale: just enough iterations to exercise every code path.
MICRO = ExperimentScale(
    name="micro",
    n_train=120,
    n_test=60,
    image_size=16,
    iterations=6,
    eval_every=3,
    num_workers=3,
    batch_size_small=4,
    batch_size_large=8,
    width_factor=0.1,
    classifier_epochs=1,
    eval_sample_size=32,
)


class TestScalesAndFormatting:
    def test_get_scale_by_name_and_object(self):
        assert get_scale("smoke") is SMOKE
        assert get_scale(MICRO) is MICRO
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_format_table_alignment(self):
        text = format_table(
            ["a", "b"], [{"a": 1, "b": 2.5}, {"a": "xyz", "b": 1e-9}]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_paper_parameter_counts_available(self):
        counts = paper_architecture_params()
        assert counts["mnist-mlp"]["generator"] == 716_560
        own = paper_architecture_params(use_paper_counts=False)
        # Our ACGAN conditioning concatenates a 10-dim one-hot to the noise,
        # adding 10 x 512 first-layer weights on top of the paper's count.
        assert own["mnist-mlp"]["generator"] == 716_560 + 10 * 512
        assert own["mnist-mlp"]["discriminator"] == counts["mnist-mlp"]["discriminator"]


class TestAnalyticRunners:
    def test_table2_structure_and_claim(self):
        result = run_table2()
        assert len(result.rows) == 3 * 4  # 3 architectures x 4 quantities
        worker_rows = [r for r in result.rows if r["quantity"] == "computation_worker"]
        assert all(r["mdgan"] < r["flgan"] for r in worker_rows)

    def test_table3_structure(self):
        result = run_table3()
        assert len(result.rows) == 3 * 7
        assert {"architecture", "communication", "flgan", "mdgan"} <= set(result.rows[0])

    def test_table4_mdgan_cheaper_at_small_batch(self):
        result = run_table4()
        rows_b10 = {
            r["communication"]: r for r in result.rows if r["batch_size"] == 10
        }
        assert (
            rows_b10["server_to_worker_at_worker"]["mdgan"]
            < rows_b10["server_to_worker_at_worker"]["flgan"]
        )

    def test_fig2_series_shapes_and_crossover_note(self):
        result = run_fig2(batch_sizes=[1, 10, 100, 1000])
        assert len(result.rows) == 2 * 4  # two architectures x four batch sizes
        assert any("crossover" in note for note in result.notes)
        mnist_rows = [r for r in result.rows if r["architecture"] == "mnist-mlp"]
        # MD-GAN worker ingress grows with b; FL-GAN stays constant.
        assert mnist_rows[-1]["mdgan_worker"] > mnist_rows[0]["mdgan_worker"]
        assert mnist_rows[-1]["flgan_worker"] == mnist_rows[0]["flgan_worker"]


class TestTrainingRunners:
    def test_fig3_runs_selected_competitors(self):
        result = run_fig3(
            dataset="mnist",
            architecture="mnist-mlp",
            scale=MICRO,
            competitors=["standalone-b4", "md-gan-k1"],
        )
        competitors = {row["competitor"] for row in result.rows}
        assert competitors == {"standalone-b4", "md-gan-k1"}
        assert all(np.isfinite(row["fid"]) for row in result.rows)
        assert "histories" in result.extras

    def test_fig3_rejects_unknown_competitor(self):
        with pytest.raises(ValueError, match="Unknown competitors"):
            run_fig3(scale=MICRO, competitors=["resnet"])

    def test_fig3_threads_backend_into_configs(self):
        # Regression: fig3 used to silently ignore --backend.  The runner
        # must accept the runtime kwargs and produce the same numbers (all
        # backends are bitwise-identical for sync runs).
        serial = run_fig3(scale=MICRO, competitors=["md-gan-k1"])
        threaded = run_fig3(
            scale=MICRO,
            competitors=["md-gan-k1"],
            backend="thread",
            max_workers=2,
        )
        a = serial.extras["histories"]["md-gan-k1"]["generator_loss"]
        b = threaded.extras["histories"]["md-gan-k1"]["generator_loss"]
        assert a == b

    def test_fig3_forwards_the_elastic_runtime_to_the_trainer(self, monkeypatch):
        # Every TrainingConfig field reaches the trainer, not just the six
        # backend keywords the runners used to name.
        from repro.experiments import common

        policies = []

        class Recording(common.TRAINERS["md-gan"]):
            def train(self, *args, **kwargs):
                history = super().train(*args, **kwargs)
                policies.append(self.executor.membership_policy)
                return history

        monkeypatch.setitem(common.TRAINERS, "md-gan", Recording)
        result = run_fig3(
            scale=MICRO,
            competitors=["md-gan-k1"],
            backend="resident",
            max_workers=2,
            on_slot_loss="degrade",
        )
        assert [policy.on_slot_loss for policy in policies] == ["degrade"]
        # An elastic pool reports its (here empty: no slot was lost) counters.
        assert result.extras["histories"]["md-gan-k1"]["membership"] == {}

    def test_staleness_sweep_rows_and_bound(self):
        result = run_staleness_sweep(
            scale=MICRO,
            depths=(1,),
            staleness_bounds=(1, 2),
            backend="thread",
            max_workers=3,
        )
        modes = [(row["mode"], row["parameter"]) for row in result.rows]
        assert modes == [
            ("sync", 0),
            ("pipelined", 1),
            ("async", 1),
            ("async", 2),
            ("async+pipelined", 1),
            ("async+pipelined", 2),
        ]
        for row in result.rows:
            assert np.isfinite(row["fid"])
            assert row["wall_seconds"] > 0
            if row["mode"] in ("async", "async+pipelined"):
                assert row["max_worker_staleness"] <= row["parameter"]
            if row["mode"] == "pipelined":
                assert row["max_staleness"] <= row["parameter"]
            if row["mode"] == "async+pipelined":
                assert row["depth"] > 0
        assert "histories" in result.extras

    def test_fig4_rows_cover_grid(self):
        result = run_fig4(
            scale=MICRO,
            worker_counts=(1, 2),
            modes=("constant_worker",),
            swap_settings=(True,),
        )
        assert len(result.rows) == 2
        assert {row["num_workers"] for row in result.rows} == {1, 2}
        # Larger N means smaller local shards.
        sizes = {row["num_workers"]: row["local_shard_size"] for row in result.rows}
        assert sizes[2] < sizes[1]

    def test_fig5_includes_crash_run(self):
        result = run_fig5(scale=MICRO)
        competitors = {row["competitor"] for row in result.rows}
        assert "md-gan-crashes" in competitors
        assert "md-gan-no-crash" in competitors
        assert any("crashed" in note for note in result.notes)

    def test_fig6_compares_three_competitors(self):
        result = run_fig6(scale=MICRO, num_workers=2)
        competitors = {row["competitor"] for row in result.rows}
        assert "standalone" in competitors
        assert any(name.startswith("fl-gan") for name in competitors)
        assert any(name.startswith("md-gan") for name in competitors)


class TestAblations:
    def test_ablation_k_traffic_grows_with_k(self):
        result = run_ablation_k(scale=MICRO, k_values=[1, 3])
        by_k = {row["k"]: row for row in result.rows}
        assert by_k[3]["server_flops"] > by_k[1]["server_flops"]

    def test_ablation_swap_counts_swaps(self):
        result = run_ablation_swap(scale=MICRO, epochs_values=[1.0, float("inf")])
        by_e = {str(row["epochs_per_swap"]): row for row in result.rows}
        assert by_e["inf"]["swaps"] == 0
        assert by_e["inf"]["swap_bytes"] == 0.0

    def test_ablation_extensions_rows(self):
        result = run_ablation_extensions(scale=MICRO)
        variants = {row["variant"] for row in result.rows}
        assert "md-gan" in variants and "md-gan-async" in variants


class TestTrafficCheck:
    def test_measured_matches_analytic(self):
        result = run_traffic_check(scale=MICRO)
        byte_rows = [
            r
            for r in result.rows
            if "bytes" in r["quantity"]
            and not r["quantity"].startswith(("swap", "resident"))
        ]
        assert byte_rows
        for row in byte_rows:
            assert row["ratio"] == pytest.approx(1.0, rel=1e-6)

    def test_resident_transport_rows_are_measured(self):
        # The resident rows meter real transport payloads: pickle overhead
        # pushes received above 1, object-graph dedup (k < N at this scale)
        # pushes sent below 1.  The tight pin with exact geometry lives in
        # benchmarks/test_socket_transport.py; here we check presence and
        # loose sanity bounds.
        result = run_traffic_check(scale=MICRO)
        resident_rows = [
            r for r in result.rows if r["quantity"].startswith("resident")
        ]
        byte_rows = [r for r in resident_rows if "bytes" in r["quantity"]]
        time_rows = [r for r in resident_rows if "transfer" in r["quantity"]]
        assert len(byte_rows) == 2 and len(time_rows) == 1
        for row in byte_rows:
            assert 0.2 < row["ratio"] < 1.5, row
        # Local transfer beats the modeled datacenter link by a wide margin
        # in the slow direction only when payloads are large; at this scale
        # just require the measurement to be present and positive.
        assert time_rows[0]["measured"] > 0.0
