"""Tests for the Table II computation/memory complexity model and its inputs."""

import math

import pytest

from repro.analysis import CostInputs, table2_complexities, worker_reduction_factor


_SYMBOLS = (
    "generator_params",
    "discriminator_params",
    "object_size",
    "batch_size",
    "num_workers",
    "iterations",
    "local_dataset_size",
)


@pytest.fixture()
def paper_mlp_inputs():
    """MNIST MLP instantiation used throughout the paper's tables."""
    return CostInputs(
        generator_params=716_560,
        discriminator_params=670_219,
        object_size=784,
        batch_size=10,
        num_workers=10,
        iterations=50_000,
        local_dataset_size=6_000,
        num_batches=2,
        epochs_per_round=1.0,
    )


class TestValidation:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            CostInputs(0, 1, 1, 1, 1, 1, 1)

    def test_rejects_nan_epochs_per_round_but_accepts_infinity(self):
        with pytest.raises(ValueError, match="epochs_per_round"):
            CostInputs(1, 1, 1, 1, 1, 1, 1, epochs_per_round=math.nan)
        assert CostInputs(1, 1, 1, 1, 1, 1, 1, epochs_per_round=math.inf)

    def test_rejects_k_greater_than_n(self):
        with pytest.raises(ValueError, match="k <= N"):
            CostInputs(10, 10, 10, 1, 2, 1, 1, num_batches=5)
        with pytest.raises(ValueError, match="k <= N"):
            CostInputs(1, 1, 1, 1, 10, 1, 1, num_batches=50)

    @pytest.mark.parametrize("field", _SYMBOLS + ("num_batches", "disc_steps"))
    @pytest.mark.parametrize("value", [math.nan, 0, -2])
    def test_rejects_nan_and_nonpositive_symbols(self, field, value):
        kwargs = dict.fromkeys(_SYMBOLS, 1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            CostInputs(**kwargs)


class TestFormulas:
    def test_worker_formulas_match_paper_expressions(self, paper_mlp_inputs):
        table = table2_complexities(paper_mlp_inputs)
        i, b = 50_000, 10
        w, theta = 716_560, 670_219
        assert table["computation_worker"]["fl-gan"] == pytest.approx(i * b * (w + theta))
        assert table["computation_worker"]["md-gan"] == pytest.approx(i * b * theta)
        assert table["memory_worker"]["fl-gan"] == pytest.approx(w + theta)
        assert table["memory_worker"]["md-gan"] == pytest.approx(theta)

    def test_server_formulas_match_paper_expressions(self, paper_mlp_inputs):
        table = table2_complexities(paper_mlp_inputs)
        i, b, n, k, d = 50_000, 10, 10, 2, 784
        w, theta = 716_560, 670_219
        m, e = 6_000, 1.0
        assert table["computation_server"]["fl-gan"] == pytest.approx(
            i * b * n * (w + theta) / (m * e)
        )
        assert table["computation_server"]["md-gan"] == pytest.approx(
            i * b * (d * n + k * w)
        )
        assert table["memory_server"]["fl-gan"] == pytest.approx(n * (w + theta))
        assert table["memory_server"]["md-gan"] == pytest.approx(b * (d * n + k * w))

    def test_worker_reduction_close_to_two_for_mlp(self, paper_mlp_inputs):
        reduction = worker_reduction_factor(paper_mlp_inputs)
        # |w| ~ |theta| for the MLP, so the factor is close to 2 (paper's claim).
        assert 1.9 < reduction["computation"] < 2.2
        assert reduction["computation"] == pytest.approx(reduction["memory"])

    def test_mdgan_always_cheaper_on_workers(self, paper_mlp_inputs):
        table = table2_complexities(paper_mlp_inputs)
        assert table["computation_worker"]["md-gan"] < table["computation_worker"]["fl-gan"]
        assert table["memory_worker"]["md-gan"] < table["memory_worker"]["fl-gan"]

    def test_mdgan_more_expensive_on_server(self, paper_mlp_inputs):
        # The price of removing generators from the workers is a busier server.
        table = table2_complexities(paper_mlp_inputs)
        assert table["computation_server"]["md-gan"] > table["computation_server"]["fl-gan"]
