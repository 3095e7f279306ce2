"""Tests for the FL-GAN (federated averaging) trainer."""

import math

import numpy as np
import pytest

from repro.core import FLGANTrainer, TrainingConfig
from repro.nn import BatchNorm
from repro.simulation import MessageKind, SERVER_NAME


def test_requires_at_least_one_shard(toy_factory, tiny_config):
    with pytest.raises(ValueError):
        FLGANTrainer(toy_factory, [], tiny_config)


def test_worker_state_requires_rng(ring_shards, toy_factory, tiny_config):
    # FLGANWorkerState.rng is a required field: a worker without its own
    # random stream must be a construction-time error, not a latent None
    # that reaches sampling code mid-round.
    from repro.core.flgan import FLGANWorkerState

    with pytest.raises(TypeError):
        FLGANWorkerState(
            index=0,
            generator=None,
            discriminator=None,
            gen_opt=None,
            disc_opt=None,
            sampler=None,
            dataset=None,
        )
    trainer = FLGANTrainer(toy_factory, ring_shards, tiny_config)
    assert all(isinstance(w.rng, np.random.Generator) for w in trainer.workers)


def test_workers_start_from_identical_models(ring_shards, toy_factory, tiny_config):
    trainer = FLGANTrainer(toy_factory, ring_shards, tiny_config)
    reference_g = trainer.server_generator.get_parameters()
    reference_d = trainer.server_discriminator.get_parameters()
    for worker in trainer.workers:
        np.testing.assert_array_equal(worker.generator.get_parameters(), reference_g)
        np.testing.assert_array_equal(worker.discriminator.get_parameters(), reference_d)


def test_fanout_path_matches_resident_path(ring_shards, toy_factory, tiny_config):
    # The bare step function on the workers' own objects and the
    # resident delta protocol execute the same compute core; one local
    # iteration must stay in bitwise lockstep between the two.
    from repro.runtime import flgan_step

    fanned = FLGANTrainer(toy_factory, ring_shards, tiny_config)
    results = [flgan_step(fanned._resident_state(worker)) for worker in fanned.workers]
    losses = [
        fanned._merge_local_result(worker, result)
        for worker, result in zip(fanned.workers, results)
    ]
    assert all(np.isfinite(g) and np.isfinite(d) for g, d in losses)
    assert all(
        w.sampler.samples_drawn == tiny_config.batch_size * tiny_config.disc_steps
        for w in fanned.workers
    )

    resident_config = tiny_config.with_overrides(backend="resident", max_workers=2)
    resident = FLGANTrainer(toy_factory, ring_shards, resident_config)
    backend = resident.executor
    items = [
        (worker.index, lambda w=worker: resident._resident_state(w), None)
        for worker in resident.workers
    ]
    step_results = backend.start_steps("flgan", items).result()
    resident_losses = [
        resident._merge_local_result(worker, result)
        for worker, result in zip(resident.workers, step_results)
    ]
    assert resident_losses == losses
    resident.sync_worker_state()
    resident.close_backend()
    for fanned_worker, resident_worker in zip(fanned.workers, resident.workers):
        np.testing.assert_array_equal(
            fanned_worker.generator.get_parameters(),
            resident_worker.generator.get_parameters(),
        )


def test_federated_round_weights_by_shard_size(ring_dataset, toy_factory):
    # FedAvg must weight each worker by its shard size m_n / sum(m): with
    # 3:1 shards the average is 0.75*w_0 + 0.25*w_1, not the uniform mean.
    train, _ = ring_dataset
    shards = [train.subset(np.arange(30)), train.subset(np.arange(30, 40))]
    config = TrainingConfig(iterations=1, batch_size=5, seed=0)
    trainer = FLGANTrainer(toy_factory, shards, config)
    gen_size = trainer.server_generator.num_parameters
    disc_size = trainer.server_discriminator.num_parameters
    trainer.workers[0].generator.set_parameters(np.full(gen_size, 1.0))
    trainer.workers[1].generator.set_parameters(np.full(gen_size, 5.0))
    trainer.workers[0].discriminator.set_parameters(np.full(disc_size, 2.0))
    trainer.workers[1].discriminator.set_parameters(np.full(disc_size, 6.0))
    trainer._federated_round(1)
    # Weighted means: 0.75*1 + 0.25*5 = 2.0 and 0.75*2 + 0.25*6 = 3.0
    # (an unweighted mean would give 3.0 and 4.0).
    np.testing.assert_allclose(
        trainer.server_generator.get_parameters(), 2.0, rtol=1e-6
    )
    np.testing.assert_allclose(
        trainer.server_discriminator.get_parameters(), 3.0, rtol=1e-6
    )
    for worker in trainer.workers:
        np.testing.assert_allclose(worker.generator.get_parameters(), 2.0, rtol=1e-6)


def test_federated_round_weights_follow_replace_dataset(ring_dataset, toy_factory):
    # FedAvg weights must track the sampler's *live* shard, not the shard the
    # worker was constructed with: after replace_dataset equalises the shard
    # sizes, the 3:1 weighting must become uniform.
    train, _ = ring_dataset
    shards = [train.subset(np.arange(30)), train.subset(np.arange(30, 40))]
    config = TrainingConfig(iterations=1, batch_size=5, seed=0)
    trainer = FLGANTrainer(toy_factory, shards, config)
    trainer.workers[1].sampler.replace_dataset(train.subset(np.arange(40, 70)))
    gen_size = trainer.server_generator.num_parameters
    trainer.workers[0].generator.set_parameters(np.full(gen_size, 1.0))
    trainer.workers[1].generator.set_parameters(np.full(gen_size, 5.0))
    trainer._federated_round(1)
    # Both shards now hold 30 samples -> uniform mean 3.0 (the stale 3:1
    # weighting would give 2.0).
    np.testing.assert_allclose(
        trainer.server_generator.get_parameters(), 3.0, rtol=1e-6
    )


def test_round_length_follows_e_m_over_b(ring_shards, toy_factory):
    config = TrainingConfig(iterations=10, batch_size=10, epochs_per_swap=2.0)
    trainer = FLGANTrainer(toy_factory, ring_shards, config)
    m = min(len(s) for s in ring_shards)
    assert trainer.iterations_per_round == round(2.0 * m / 10)


def test_federated_round_averages_and_synchronises(ring_shards, toy_factory):
    # Choose iteration count = one round so exactly one aggregation happens.
    m = min(len(s) for s in ring_shards)
    batch = 10
    iterations = max(1, int(round(m / batch)))
    config = TrainingConfig(iterations=iterations, batch_size=batch, epochs_per_swap=1.0, seed=4)
    trainer = FLGANTrainer(toy_factory, ring_shards, config)
    history = trainer.train()
    rounds = history.events_of_kind("federated_round")
    assert len(rounds) == 1
    # After the round every worker holds the server's averaged parameters.
    server_params = trainer.server_generator.get_parameters()
    for worker in trainer.workers:
        np.testing.assert_allclose(worker.generator.get_parameters(), server_params)


def test_traffic_counts_model_transfers(ring_shards, toy_factory):
    m = min(len(s) for s in ring_shards)
    batch = 10
    iterations = int(round(m / batch)) * 2  # exactly two rounds
    config = TrainingConfig(iterations=iterations, batch_size=batch, seed=4)
    trainer = FLGANTrainer(toy_factory, ring_shards, config)
    trainer.train()
    meter = trainer.cluster.meter
    model_floats = (
        trainer.server_generator.num_parameters
        + trainer.server_discriminator.num_parameters
    )
    expected_per_round = len(ring_shards) * model_floats * 4
    assert meter.total_bytes(MessageKind.MODEL_UPDATE) == 2 * expected_per_round
    assert meter.total_bytes(MessageKind.MODEL_BROADCAST) == 2 * expected_per_round
    assert meter.node_ingress(SERVER_NAME) == 2 * expected_per_round


def test_no_round_when_epochs_infinite(ring_shards, toy_factory):
    config = TrainingConfig(iterations=8, batch_size=8, epochs_per_swap=math.inf)
    trainer = FLGANTrainer(toy_factory, ring_shards, config)
    history = trainer.train()
    assert history.events_of_kind("federated_round") == []
    assert trainer.cluster.meter.total_messages() == 0


def test_evaluation_uses_server_generator(ring_shards, toy_factory, ring_evaluator):
    config = TrainingConfig(iterations=6, batch_size=8, eval_every=3, seed=1)
    trainer = FLGANTrainer(toy_factory, ring_shards, config, evaluator=ring_evaluator)
    history = trainer.train()
    assert len(history.evaluations) == 2
    assert history.traffic["rounds"] >= 0


def test_losses_recorded_every_iteration(ring_shards, toy_factory, tiny_config):
    trainer = FLGANTrainer(toy_factory, ring_shards, tiny_config)
    history = trainer.train()
    assert len(history.iterations) == tiny_config.iterations
    assert all(np.isfinite(history.generator_loss))


def _batchnorm_cnn_setup():
    """A BatchNorm CNN GAN over four 40-image MNIST-like shards."""
    from repro.datasets import make_mnist_like
    from repro.models import build_mnist_cnn_gan

    train, _ = make_mnist_like(n_train=160, n_test=20, image_size=16, seed=7)
    factory = build_mnist_cnn_gan(
        image_shape=train.spec.shape, num_classes=train.num_classes, width_factor=0.25
    )
    return factory, [train.subset(np.arange(start, start + 40)) for start in (0, 40, 80, 120)]


@pytest.mark.parametrize("model", ["toy", "batchnorm-cnn"])
@pytest.mark.parametrize("aggregation", ["sync", "async"])
def test_model_transfer_bytes_match_rounds_closed_form(
    ring_shards, toy_factory, aggregation, model
):
    # Table III, FL-GAN column: every round moves each contributor's full
    # GAN up and the average back down, (|w| + |θ|) floats each way, plus
    # the BatchNorm running statistics that FedAvg averages with them.
    factory, shards = (toy_factory, ring_shards) if model == "toy" else _batchnorm_cnn_setup()
    config = TrainingConfig(
        iterations=12, batch_size=10, epochs_per_swap=0.2 if model == "toy" else 0.75,
        seed=4, aggregation=aggregation, max_staleness=2,
    )
    trainer = FLGANTrainer(factory, shards, config)
    history = trainer.train()
    rounds = history.events_of_kind("federated_round")
    assert len(rounds) >= 2
    server = (trainer.server_generator, trainer.server_discriminator)
    buffers = sum(net.get_buffers().size for net in server)
    assert (buffers > 0) == (model != "toy")
    model_floats = sum(net.num_parameters for net in server) + buffers
    expected = sum(r["workers"] for r in rounds) * model_floats * 4
    meter = trainer.cluster.meter
    assert meter.total_bytes(MessageKind.MODEL_UPDATE) == expected
    assert meter.total_bytes(MessageKind.MODEL_BROADCAST) == expected
    assert meter.node_egress(SERVER_NAME) == expected


def _batchnorm_stats(model):
    """Every BatchNorm layer's running mean then variance, read off the layers."""
    norms = [layer for layer in model.layers if isinstance(layer, BatchNorm)]
    return [stat for layer in norms for stat in (layer.running_mean, layer.running_var)]


@pytest.mark.parametrize("backend", ["serial", "resident"])
def test_fedavg_averages_batchnorm_statistics(backend):
    # The server evaluates its generator in inference mode, so its BatchNorm
    # running statistics must be the shard-weighted mean of the workers'
    # at the round, not the 0 / 1 it was built with.
    from repro.datasets import make_mnist_like
    from repro.models import build_mnist_cnn_gan
    from repro.nn.serialize import weighted_average_parameters

    train, _ = make_mnist_like(n_train=160, n_test=20, image_size=16, seed=7)
    factory = build_mnist_cnn_gan(
        image_shape=train.spec.shape, num_classes=train.num_classes, width_factor=0.25
    )
    bounds = ((0, 64), (64, 104), (104, 144))
    shards = [train.subset(np.arange(start, stop)) for start, stop in bounds]

    def run(epochs_per_swap):
        # Rounds of 0.8 * 40 / 8 = 4 iterations: the only round is the last.
        config = TrainingConfig(
            iterations=4,
            batch_size=8,
            seed=3,
            precision="float32",
            backend=backend,
            max_workers=2,
            epochs_per_swap=epochs_per_swap,
        )
        with FLGANTrainer(factory, shards, config) as trainer:
            history = trainer.train()
        return trainer, history

    # Without the round, the workers end where the round run's stood before it.
    before, _ = run(math.inf)
    trainer, history = run(0.8)
    assert len(history.events_of_kind("federated_round")) == 1
    weights = [len(shard) for shard in shards]
    server = trainer.server_generator
    stats = _batchnorm_stats(server)
    assert stats
    for i, got in enumerate(stats):
        expected = weighted_average_parameters(
            [_batchnorm_stats(w.generator)[i] for w in before.workers], weights
        )
        np.testing.assert_array_equal(got, expected)
        for worker in trainer.workers:
            np.testing.assert_array_equal(_batchnorm_stats(worker.generator)[i], got)
    assert not np.array_equal(stats[0], np.zeros_like(stats[0]))
