"""Backend parity: seeded runs must be bitwise identical across backends.

The execution backends only change *where* the per-worker phase runs, never
the numerics: results merge in worker-index order and the task runners touch
no shared state.  These tests pin that guarantee for MD-GAN and FL-GAN —
including under fail-stop crashes and partial participation — by comparing full loss trajectories, final parameters,
metered traffic and compute ledgers against the serial reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_toy_gan
from repro.simulation import CrashSchedule

#: Backend specs for parametrized parity tests.  ``"resident-tcp"`` and
#: ``"resident-4slots"`` are pseudo-backend specs: :func:`_config` maps the
#: first to the resident backend with ``transport="tcp"``, so every parity
#: scenario also pins that seeded runs over loopback sockets are bitwise
#: identical to pipes and to serial, and the second to one pipe slot per
#: worker (plain ``"resident"`` puts two workers on each of two slots), so
#: the worker-to-slot layout moves no bit either.
PARALLEL_BACKENDS = ("resident", "resident-tcp", "resident-4slots")


@pytest.fixture(scope="module")
def small_shards_and_factory():
    """A tiny ring dataset split over 4 workers, plus a matched toy GAN."""
    train, _ = make_gaussian_ring(n_train=160, n_test=40, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        latent_dim=8,
        hidden=16,
    )
    shards = partition_iid(train, 4, np.random.default_rng(3))
    return shards, factory


def _config(backend: str, **overrides) -> TrainingConfig:
    base = dict(iterations=5, batch_size=8, seed=11, backend=backend, max_workers=2)
    if backend == "resident-tcp":
        base.update(backend="resident", transport="tcp")
    elif backend == "resident-4slots":
        base.update(backend="resident", max_workers=4)
    base.update(overrides)
    return TrainingConfig(**base)


def _mdgan_signature(trainer) -> dict:
    history = trainer.train()
    return {
        "gen_loss": history.generator_loss,
        "disc_loss": history.discriminator_loss,
        "events": history.events,
        "generator": trainer.generator.get_parameters(),
        "discriminators": [w.discriminator.get_parameters() for w in trainer.workers],
        "traffic": trainer.cluster.meter.total_bytes(),
        "flops": [node.compute.flops for node in trainer.cluster.workers],
        "flops_by_category": [
            node.compute.by_category for node in trainer.cluster.workers
        ],
        "peak_memory": [
            node.compute.peak_memory_floats for node in trainer.cluster.workers
        ],
    }


def _assert_signatures_equal(got: dict, expected: dict) -> None:
    assert got["gen_loss"] == expected["gen_loss"]
    assert got["disc_loss"] == expected["disc_loss"]
    assert got["events"] == expected["events"]
    assert np.array_equal(got["generator"], expected["generator"])
    for got_d, exp_d in zip(got["discriminators"], expected["discriminators"]):
        assert np.array_equal(got_d, exp_d)
    assert got["traffic"] == expected["traffic"]
    assert got["flops"] == expected["flops"]
    assert got["flops_by_category"] == expected["flops_by_category"]
    assert got["peak_memory"] == expected["peak_memory"]


class TestMDGANParity:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_bitwise_identical_to_serial(self, backend, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        reference = _mdgan_signature(
            MDGANTrainer(factory, shards, _config("serial"))
        )
        got = _mdgan_signature(MDGANTrainer(factory, shards, _config(backend)))
        _assert_signatures_equal(got, reference)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_parity_under_crashes_and_partial_participation(
        self, backend, small_shards_and_factory
    ):
        shards, factory = small_shards_and_factory

        def build(backend_name):
            return MDGANTrainer(
                factory,
                shards,
                _config(backend_name, participation_fraction=0.75),
                crash_schedule=CrashSchedule({2: ["worker-1"], 4: ["worker-3"]}),
            )

        reference = _mdgan_signature(build("serial"))
        got = _mdgan_signature(build(backend))
        _assert_signatures_equal(got, reference)
        # The schedule actually crashed workers, so the scenario is exercised.
        assert [e["kind"] for e in reference["events"]].count("crash") == 2

    def test_sampled_variant_parity(self, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        reference = _mdgan_signature(
            MDGANTrainer(factory, shards, _config("serial", participation_fraction=0.5))
        )
        got = _mdgan_signature(
            MDGANTrainer(factory, shards, _config("resident", participation_fraction=0.5))
        )
        _assert_signatures_equal(got, reference)


class TestFLGANParity:
    @staticmethod
    def _signature(trainer) -> dict:
        history = trainer.train()
        return {
            "gen_loss": history.generator_loss,
            "disc_loss": history.discriminator_loss,
            "events": history.events,
            "server_generator": trainer.server_generator.get_parameters(),
            "workers": [
                (w.generator.get_parameters(), w.discriminator.get_parameters())
                for w in trainer.workers
            ],
            "traffic": trainer.cluster.meter.total_bytes(),
        }

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_bitwise_identical_to_serial(self, backend, small_shards_and_factory):
        shards, factory = small_shards_and_factory

        def build(backend_name):
            # epochs_per_swap=0.4 -> a federated round every 2 iterations, so
            # the averaging/broadcast path is crossed by the parallel phase.
            return FLGANTrainer(
                factory, shards, _config(backend_name, epochs_per_swap=0.4)
            )

        reference = self._signature(build("serial"))
        got = self._signature(build(backend))
        assert reference["events"], "expected at least one federated round"
        assert got["gen_loss"] == reference["gen_loss"]
        assert got["disc_loss"] == reference["disc_loss"]
        assert got["events"] == reference["events"]
        assert np.array_equal(
            got["server_generator"], reference["server_generator"]
        )
        for (got_g, got_d), (exp_g, exp_d) in zip(
            got["workers"], reference["workers"]
        ):
            assert np.array_equal(got_g, exp_g)
            assert np.array_equal(got_d, exp_d)
        assert got["traffic"] == reference["traffic"]

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_parity_with_crashed_worker(self, backend, small_shards_and_factory):
        shards, factory = small_shards_and_factory

        def build(backend_name):
            trainer = FLGANTrainer(
                factory, shards, _config(backend_name, epochs_per_swap=0.4)
            )
            trainer.cluster.workers[2].crash()
            return trainer

        reference = self._signature(build("serial"))
        got = self._signature(build(backend))
        assert got["gen_loss"] == reference["gen_loss"]
        assert np.array_equal(
            got["server_generator"], reference["server_generator"]
        )
        assert got["traffic"] == reference["traffic"]


class TestPipelineDepthZeroParity:
    """``pipeline_depth=0`` must be bitwise identical to the default config.

    The pipelined mode is opt-in: passing an explicit depth of zero takes the
    synchronous code path on every backend, produces no staleness/overlap
    records, and leaves the trajectory untouched.
    """

    @pytest.mark.parametrize("backend", ("serial",) + PARALLEL_BACKENDS)
    def test_mdgan_depth_zero_matches_default(self, backend, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        reference = _mdgan_signature(
            MDGANTrainer(factory, shards, _config("serial"))
        )
        got_trainer = MDGANTrainer(
            factory, shards, _config(backend, pipeline_depth=0)
        )
        got = _mdgan_signature(got_trainer)
        _assert_signatures_equal(got, reference)
        assert got_trainer.history.staleness == []
        assert got_trainer.history.overlap == {}

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_mdgan_fixed_positive_depth_is_backend_invariant(
        self, backend, small_shards_and_factory
    ):
        # Depth > 0 deliberately relaxes parity *with the synchronous
        # schedule* — but for a fixed depth the trajectory (including the
        # recorded staleness) must still be identical across backends.
        shards, factory = small_shards_and_factory
        reference = _mdgan_signature(
            MDGANTrainer(factory, shards, _config("serial", pipeline_depth=1))
        )
        got = _mdgan_signature(
            MDGANTrainer(factory, shards, _config(backend, pipeline_depth=1))
        )
        _assert_signatures_equal(got, reference)

    def test_flgan_any_depth_matches_synchronous(self, small_shards_and_factory):
        # FL-GAN pipelining (resident window) is parity-preserving at every
        # depth: local iterations never touch the server model between
        # rounds, and merges stay in dispatch order.
        shards, factory = small_shards_and_factory
        reference = TestFLGANParity._signature(
            FLGANTrainer(factory, shards, _config("serial", epochs_per_swap=0.4))
        )
        got = TestFLGANParity._signature(
            FLGANTrainer(
                factory,
                shards,
                _config("resident", epochs_per_swap=0.4, pipeline_depth=2),
            )
        )
        assert got["gen_loss"] == reference["gen_loss"]
        assert got["events"] == reference["events"]
        assert np.array_equal(got["server_generator"], reference["server_generator"])
        assert got["traffic"] == reference["traffic"]


class TestComposedModes:
    """The previously forbidden mode compositions, pinned per backend.

    ``aggregation="async"`` now composes with ``pipeline_depth > 0`` (the
    engine's lookahead store, dispatched with backdated staleness marks) and
    with ``participation_fraction < 1`` (deselected in-flight units merge
    state but discard their contribution, sync's discard accounting).  The
    staleness bound must hold unchanged under both.
    """

    pytestmark = pytest.mark.composition

    @pytest.mark.parametrize("backend", ("serial",) + PARALLEL_BACKENDS)
    def test_async_pipelined_bound_holds_on_every_backend(
        self, backend, small_shards_and_factory
    ):
        shards, factory = small_shards_and_factory
        config = _config(
            backend,
            iterations=6,
            aggregation="async",
            max_staleness=1,
            pipeline_depth=2,
        )
        with MDGANTrainer(factory, shards, config) as trainer:
            history = trainer.train()
        assert len(history.iterations) == config.iterations
        assert history.max_worker_staleness() <= config.max_staleness
        assert history.overlap["p95_staleness"] <= config.max_staleness
        # The lookahead window actually overlapped: the recorded summary
        # carries the depth and at least one pre-generated batch set.
        assert history.overlap["pipeline_depth"] == 2.0
        assert history.overlap["lookahead_generations"] > 0

    def test_async_pipelined_serial_is_deterministic(self, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        runs = []
        for _ in range(2):
            config = _config(
                "serial",
                iterations=6,
                aggregation="async",
                max_staleness=2,
                pipeline_depth=2,
            )
            with MDGANTrainer(factory, shards, config) as trainer:
                history = trainer.train()
            runs.append(
                (
                    history.generator_loss,
                    history.discriminator_loss,
                    trainer.generator.get_parameters().tobytes(),
                )
            )
        assert runs[0] == runs[1]

    def test_async_partial_participation_discard_accounting(
        self, small_shards_and_factory
    ):
        shards, factory = small_shards_and_factory
        runs = []
        for _ in range(2):
            config = _config(
                "serial",
                iterations=6,
                aggregation="async",
                max_staleness=2,
                participation_fraction=0.5,
            )
            with MDGANTrainer(factory, shards, config) as trainer:
                history = trainer.train()
            runs.append(
                (
                    history.generator_loss,
                    history.events,
                    trainer.generator.get_parameters().tobytes(),
                )
            )
        # The run still applies exactly `iterations` global updates; units
        # from deselected workers merged their state but discarded their
        # contribution, each recorded as a participation_discard event.
        assert len(history.iterations) == config.iterations
        assert history.max_worker_staleness() <= config.max_staleness
        assert history.events_of_kind("participation_discard")
        assert runs[0] == runs[1]

    def test_flgan_async_depth_is_identity(self, small_shards_and_factory):
        # FL-GAN's async unit is already a single local iteration; a depth
        # is accepted (and recorded) but must not change the trajectory.
        shards, factory = small_shards_and_factory

        def final(depth):
            config = _config(
                "serial",
                iterations=6,
                aggregation="async",
                max_staleness=2,
                epochs_per_swap=0.5,
                pipeline_depth=depth,
            )
            with FLGANTrainer(factory, shards, config) as trainer:
                history = trainer.train()
            return history.generator_loss, trainer.server_generator.get_parameters()

        base_losses, base_params = final(0)
        depth_losses, depth_params = final(2)
        assert depth_losses == base_losses
        assert np.array_equal(depth_params, base_params)


class TestBackendStateRoundTrip:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_backend_advances_parent_rng_and_sampler(
        self, backend, small_shards_and_factory
    ):
        # The worker RNG and its sampler share one Generator; after the
        # pickle round-trip of the install and the final state sync the
        # re-adopted copies must still share it, and their
        # state must have advanced exactly as in a serial run.
        shards, factory = small_shards_and_factory
        serial = MDGANTrainer(factory, shards, _config("serial", iterations=2))
        serial.train()
        other = MDGANTrainer(factory, shards, _config(backend, iterations=2))
        other.train()
        for s_worker, p_worker in zip(serial.workers, other.workers):
            assert p_worker.sampler._rng is p_worker.rng
            assert (
                p_worker.rng.bit_generator.state == s_worker.rng.bit_generator.state
            )
            assert p_worker.sampler.samples_drawn == s_worker.sampler.samples_drawn
