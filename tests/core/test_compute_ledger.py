"""Closed forms for the per-node compute ledgers (Table II, read from a run).

The trainers charge Table II's costs when they merge a worker's step, from
``L``, ``b``, ``|w|`` and ``|θ|`` alone.  These tests pin the resulting
ledgers to closed forms, and tie them to the Table III meter: a worker is
charged for exactly the steps whose ``ERROR_FEEDBACK`` message the meter
holds, so a lost or discarded unit charges nothing on either book.  The
iteration-time estimator prices the same operation counts.
"""

from __future__ import annotations

import pytest

from repro.analysis import CostInputs
from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.runtime import ChaosTransport, ResidentBackend
from repro.runtime.resident import serve_slot
from repro.runtime.transport import LocalPipeTransport
from repro.simulation import (
    SERVER_NAME,
    CrashSchedule,
    HardwareProfile,
    MessageKind,
    estimate_iteration_time,
)

L, B = 2, 8


def _config(**overrides) -> TrainingConfig:
    base = dict(iterations=6, batch_size=B, disc_steps=L, seed=11, max_workers=2)
    base.update(overrides)
    if base.get("backend") == "resident-tcp":
        # The ledgers travel back in tcp worker hosts' replies too.
        base.update(backend="resident", transport="tcp")
    return TrainingConfig(**base)


def _feedback_messages(trainer, node) -> int:
    link = trainer.cluster.meter.links.get((node.name, SERVER_NAME, MessageKind.ERROR_FEEDBACK))
    return link.messages if link is not None else 0


def _assert_mdgan_worker_ledgers(trainer) -> list:
    """Every worker's ledger is its merged steps times Table II's step cost."""
    theta = trainer.workers[0].discriminator.num_parameters
    steps = []
    for node in trainer.cluster.workers:
        s = _feedback_messages(trainer, node)
        assert s > 0
        assert node.compute.by_category == {
            "discriminator_training": s * L * 2 * B * theta,
            "feedback": s * 2 * B * theta,
        }
        assert node.compute.peak_memory_floats == theta
        steps.append(s)
    return steps


class TestMDGANWorkerLedger:
    @pytest.mark.parametrize("backend", ["serial", "resident", "resident-tcp"])
    def test_closed_form_under_a_crash(self, backend, ring_shards, toy_factory):
        trainer = MDGANTrainer(
            toy_factory,
            ring_shards,
            _config(backend=backend),
            crash_schedule=CrashSchedule({3: ["worker-1"]}),
        )
        with trainer:
            trainer.train()
        # Worker 1 merged iterations 1-2 only; the others all six.
        assert _assert_mdgan_worker_ledgers(trainer) == [6, 2, 6, 6]

    def test_a_lost_unit_charges_nothing(self, ring_shards, toy_factory):
        # An elastic ``degrade`` pool loses a slot while iteration 2 is in
        # flight: the units on that slot come back LOST and their workers
        # are evicted, with neither a feedback message nor a compute charge.
        config = _config(backend="resident", on_slot_loss="degrade", rejoin_backoff=0.05)
        trainer = MDGANTrainer(toy_factory, ring_shards, config)
        transport = ChaosTransport(LocalPipeTransport(serve_slot))
        backend = ResidentBackend(
            max_workers=2, transport=transport, membership_policy=config.membership_policy()
        )
        trainer.adopt_backend(backend, owned=True)
        merge = trainer._merge_worker_phase

        def merge_under_kill(iteration, live_workers, handle):
            if iteration == 2:
                transport.kill_slot(1)
            return merge(iteration, live_workers, handle)

        trainer._merge_worker_phase = merge_under_kill
        with trainer:
            history = trainer.train()
        evicted = {e["worker"] for e in history.events_of_kind("membership_evict")}
        assert evicted
        steps = _assert_mdgan_worker_ledgers(trainer)
        for index, s in enumerate(steps):
            assert s == (1 if index in evicted else config.iterations)


class TestFLGANWorkerLedger:
    @pytest.mark.parametrize("backend", ["serial", "resident", "resident-tcp"])
    def test_closed_form_and_the_factor_of_two(self, backend, ring_shards, toy_factory):
        iterations = 6
        with FLGANTrainer(
            toy_factory, ring_shards, _config(backend=backend, epochs_per_swap=0.1)
        ) as fl:
            fl_history = fl.train()
        w = fl.server_generator.num_parameters
        theta = fl.server_discriminator.num_parameters
        for node in fl.cluster.workers:
            assert node.compute.by_category == {
                "batch_generation": iterations * (L + 1) * B * w,
                "discriminator_training": iterations * L * 2 * B * theta,
                "feedback": iterations * 2 * B * theta,
                "generator_update": iterations * B * w,
            }
            assert node.compute.peak_memory_floats == w + theta
        rounds = len(fl_history.events_of_kind("federated_round"))
        assert rounds > 0
        assert fl.cluster.server.compute.by_category == {
            "fedavg": rounds * len(ring_shards) * (w + theta)
        }
        assert fl_history.compute["server_flops"] == fl.cluster.server.compute.flops

        with MDGANTrainer(toy_factory, ring_shards, _config(backend=backend)) as md:
            md_history = md.train()
        ratio = fl_history.compute["mean_worker_flops"] / md_history.compute["mean_worker_flops"]
        expected = (L * B * w + 2 * L * B * theta + 2 * B * w + 2 * B * theta) / (
            2 * (L + 1) * B * theta
        )
        assert ratio == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "algorithm, trainer_cls", [("md-gan", MDGANTrainer), ("fl-gan", FLGANTrainer)]
)
def test_estimator_prices_what_the_ledger_charges(
    algorithm, trainer_cls, ring_shards, toy_factory
):
    config = _config(num_batches=2)
    with trainer_cls(toy_factory, ring_shards, config) as trainer:
        history = trainer.train()
    counts = toy_factory.parameter_counts()
    inputs = CostInputs(
        generator_params=counts["generator"],
        discriminator_params=counts["discriminator"],
        object_size=toy_factory.object_size,
        batch_size=B,
        num_workers=len(ring_shards),
        iterations=config.iterations,
        local_dataset_size=len(ring_shards[0]),
        num_batches=2,
        disc_steps=L,
    )
    # At one operation per second, a phase's seconds are its operations.
    timeline = estimate_iteration_time(algorithm, inputs, hardware=HardwareProfile(1.0, 1.0))
    per_iteration = {k: v / config.iterations for k, v in history.compute.items()}
    assert timeline.worker_compute_s == per_iteration["mean_worker_flops"]
    if algorithm == "md-gan":
        server_s = timeline.server_generate_s + timeline.server_update_s
        assert server_s == per_iteration["server_flops"]
