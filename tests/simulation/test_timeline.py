"""Tests for the iteration wall-clock estimator."""

import dataclasses
import math

import pytest

from repro.analysis import CostInputs
from repro.simulation import (
    HardwareProfile,
    LinkModel,
    estimate_iteration_time,
)

PAPER_MLP = CostInputs(
    generator_params=716_560,
    discriminator_params=670_219,
    object_size=784,
    batch_size=10,
    num_workers=10,
    iterations=50_000,
    local_dataset_size=6_000,
)


class TestHardwareProfile:
    def test_presets(self):
        assert HardwareProfile.datacenter().worker_flops_per_s > HardwareProfile.edge().worker_flops_per_s

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareProfile(server_flops_per_s=0)
        for profile in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                HardwareProfile(*profile)


class TestEstimator:
    def test_total_is_sum_of_phases(self):
        timeline = estimate_iteration_time("md-gan", PAPER_MLP)
        parts = timeline.as_dict()
        total = parts.pop("total_s")
        assert total == pytest.approx(sum(parts.values()))
        assert all(v >= 0 for v in parts.values())

    def test_mdgan_worker_phase_cheaper_than_flgan(self):
        """MD-GAN removes the generator pass from the workers.

        Priced with the ledgers' constants at L=1, an FL-GAN worker also
        generates two batches and updates its generator, ``3·b·|w|`` more
        operations: the MD-GAN worker does ~0.56 of its work here, and Table
        II's factor of two counts the memory footprint / model hosting.
        """
        mdgan = estimate_iteration_time("md-gan", PAPER_MLP)
        flgan = estimate_iteration_time("fl-gan", PAPER_MLP)
        assert mdgan.worker_compute_s < 0.85 * flgan.worker_compute_s

    def test_mdgan_pays_communication_every_iteration(self):
        mdgan = estimate_iteration_time("md-gan", PAPER_MLP)
        flgan_between_rounds = estimate_iteration_time("fl-gan", PAPER_MLP)
        assert mdgan.downlink_s > 0 and mdgan.uplink_s > 0
        # Between federated rounds FL-GAN communicates nothing.
        assert flgan_between_rounds.downlink_s == 0
        assert flgan_between_rounds.uplink_s == 0

    def test_flgan_round_iteration_ships_full_models(self):
        flgan_round = estimate_iteration_time(
            "fl-gan", PAPER_MLP, swap_this_iteration=True
        )
        mdgan = estimate_iteration_time("md-gan", PAPER_MLP)
        # Shipping ~1.4M parameters dwarfs shipping 2 batches of 10 MNIST images.
        assert flgan_round.downlink_s > mdgan.downlink_s

    def test_swap_only_charged_when_requested(self):
        without = estimate_iteration_time("md-gan", PAPER_MLP)
        with_swap = estimate_iteration_time(
            "md-gan", PAPER_MLP, swap_this_iteration=True
        )
        assert without.swap_s == 0
        assert with_swap.swap_s > 0
        assert with_swap.total_s > without.total_s

    def test_slower_links_increase_communication_share(self):
        fast = estimate_iteration_time("md-gan", PAPER_MLP, link=LinkModel.datacenter())
        slow = estimate_iteration_time("md-gan", PAPER_MLP, link=LinkModel.edge())
        assert slow.downlink_s > fast.downlink_s
        assert slow.total_s > fast.total_s

    def test_edge_hardware_slows_worker_phase(self):
        dc = estimate_iteration_time("md-gan", PAPER_MLP, hardware=HardwareProfile.datacenter())
        edge = estimate_iteration_time("md-gan", PAPER_MLP, hardware=HardwareProfile.edge())
        assert edge.worker_compute_s > dc.worker_compute_s
        assert edge.server_generate_s == dc.server_generate_s

    def test_flgan_round_iteration_prices_fedavg(self):
        round_ = estimate_iteration_time(
            "fl-gan", PAPER_MLP, swap_this_iteration=True, hardware=HardwareProfile(1.0, 1.0)
        )
        assert round_.server_update_s == 10 * (716_560 + 670_219)

    def test_validation(self):
        with pytest.raises(ValueError, match="algorithm"):
            estimate_iteration_time("gossip-gan", PAPER_MLP)

    @pytest.mark.parametrize(
        "field, value",
        [("disc_steps", -3), ("num_batches", -2), ("num_batches", 50), ("batch_size", 0)],
    )
    def test_rejects_inputs_that_price_nonsense(self, field, value):
        # At N = 10 these once priced a negative worker or generation phase,
        # or a k > N iteration.
        with pytest.raises(ValueError):
            estimate_iteration_time("md-gan", dataclasses.replace(PAPER_MLP, **{field: value}))
