"""Tests for the Table III/IV and Figure 2 communication model."""

import math

import pytest

from repro.analysis import (
    MEGABYTE,
    CostInputs,
    crossover_batch_size,
    ingress_traffic_per_iteration,
    ingress_traffic_sweep,
    table3_communication,
    table4_costs,
)


@pytest.fixture()
def cifar_inputs():
    """The paper's Table IV setting: CIFAR10 CNN, N=10, I=50,000."""
    return CostInputs(
        generator_params=628_110,
        discriminator_params=100_203,
        object_size=3_072,
        batch_size=10,
        num_workers=10,
        iterations=50_000,
        local_dataset_size=5_000,
        epochs_per_round=1.0,
    )


class TestInputs:
    def test_rejects_nan_symbols(self):
        with pytest.raises(ValueError, match="generator_params"):
            CostInputs(math.nan, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="epochs_per_round"):
            CostInputs(1, 1, 1, 1, 1, 1, 1, epochs_per_round=math.nan)


class TestTable3:
    def test_flgan_rows_depend_only_on_model_size(self, cifar_inputs):
        table = table3_communication(cifar_inputs)
        model = 628_110 + 100_203
        assert table["server_to_worker_at_worker"]["fl-gan"] == model
        assert table["worker_to_server_at_server"]["fl-gan"] == 10 * model
        assert table["worker_to_worker_at_worker"]["fl-gan"] == 0

    def test_mdgan_rows_depend_on_batch_and_object_size(self, cifar_inputs):
        table = table3_communication(cifar_inputs)
        assert table["worker_to_server_at_worker"]["md-gan"] == 10 * 3072
        assert table["server_to_worker_at_worker"]["md-gan"] == 2 * 10 * 3072
        assert table["worker_to_worker_at_worker"]["md-gan"] == 100_203

    def test_round_counts(self, cifar_inputs):
        table = table3_communication(cifar_inputs)
        assert table["num_server_worker_rounds"]["md-gan"] == 50_000
        assert table["num_server_worker_rounds"]["fl-gan"] == pytest.approx(
            50_000 * 10 / 5_000
        )
        assert table["num_worker_worker_rounds"]["md-gan"] == pytest.approx(
            50_000 * 10 / 5_000
        )


class TestTable4:
    def test_matches_paper_mdgan_costs(self, cifar_inputs):
        """The paper reports 2.30 MB server egress and 0.23 MB per worker at b=10."""
        costs = table4_costs(cifar_inputs)
        assert costs["server_to_worker_at_server"]["md-gan"] == pytest.approx(2.34, abs=0.1)
        assert costs["server_to_worker_at_worker"]["md-gan"] == pytest.approx(0.234, abs=0.01)

    def test_b100_scales_mdgan_costs_tenfold(self, cifar_inputs):
        b100 = CostInputs(
            generator_params=cifar_inputs.generator_params,
            discriminator_params=cifar_inputs.discriminator_params,
            object_size=cifar_inputs.object_size,
            batch_size=100,
            num_workers=10,
            iterations=50_000,
            local_dataset_size=5_000,
        )
        costs10 = table4_costs(cifar_inputs)
        costs100 = table4_costs(b100)
        assert costs100["server_to_worker_at_server"]["md-gan"] == pytest.approx(
            10 * costs10["server_to_worker_at_server"]["md-gan"]
        )
        # FL-GAN costs do not depend on the batch size.
        assert costs100["server_to_worker_at_server"]["fl-gan"] == pytest.approx(
            costs10["server_to_worker_at_server"]["fl-gan"]
        )

    def test_round_rows_not_converted_to_mb(self, cifar_inputs):
        costs = table4_costs(cifar_inputs)
        assert costs["num_server_worker_rounds"]["md-gan"] == 50_000


class TestFigure2:
    def test_flgan_curves_are_flat_in_batch_size(self, cifar_inputs):
        rows = ingress_traffic_sweep(cifar_inputs, [1, 10, 100, 1000])
        flgan_worker = {row["flgan_worker"] for row in rows}
        flgan_server = {row["flgan_server"] for row in rows}
        assert len(flgan_worker) == 1 and len(flgan_server) == 1

    def test_mdgan_curves_grow_linearly(self, cifar_inputs):
        rows = ingress_traffic_sweep(cifar_inputs, [10, 100])
        growth = rows[1]["mdgan_server"] / rows[0]["mdgan_server"]
        assert growth == pytest.approx(10.0)

    def test_crossover_in_the_hundreds_for_paper_gans(self, cifar_inputs):
        mnist_inputs = CostInputs(
            generator_params=716_560,
            discriminator_params=670_219,
            object_size=784,
            batch_size=10,
            num_workers=10,
            iterations=50_000,
            local_dataset_size=6_000,
        )
        assert 50 <= crossover_batch_size(cifar_inputs) <= 600
        assert 100 <= crossover_batch_size(mnist_inputs) <= 1000
        # Below the crossover MD-GAN is cheaper per communication at a worker.
        b = int(crossover_batch_size(cifar_inputs) / 2)
        traffic = ingress_traffic_per_iteration(
            CostInputs(
                generator_params=cifar_inputs.generator_params,
                discriminator_params=cifar_inputs.discriminator_params,
                object_size=cifar_inputs.object_size,
                batch_size=b,
                num_workers=10,
                iterations=50_000,
                local_dataset_size=5_000,
            )
        )
        assert traffic["worker"]["md-gan"] < traffic["worker"]["fl-gan"]

    def test_sweep_rejects_invalid_batch_size(self, cifar_inputs):
        with pytest.raises(ValueError):
            ingress_traffic_sweep(cifar_inputs, [0])

    def test_megabyte_constant_is_binary(self):
        assert MEGABYTE == 2**20
