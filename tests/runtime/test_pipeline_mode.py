"""Tests for the pipelined execution mode (repro.runtime.pipeline).

Covers the building blocks (lookahead queue, in-flight window, resident
generation, async dispatch handles) and the end-to-end semantics: depth 0 stays
bitwise identical to the synchronous schedule, a fixed positive depth is
deterministic across backends, staleness is recorded per iteration, and
FL-GAN pipelining preserves bitwise parity at every depth.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.core.gan_ops import sample_generator_images
from repro.core.history import TrainingHistory
from repro.datasets import make_gaussian_ring, make_mnist_like, partition_iid
from repro.models import build_architecture, build_toy_gan
from repro.nn.layers import BatchNorm, Dropout
from repro.runtime import (
    BatchAheadQueue,
    InflightWindow,
    PipelineStats,
    ResidentBackend,
    can_generate_resident,
    create_backend,
    start_resident_generation,
)
from repro.runtime.tasks import MDGANResidentState
from repro.simulation import CrashSchedule


@pytest.fixture(scope="module")
def ring_setup():
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
    base = dict(iterations=6, batch_size=8, seed=11, backend=backend, max_workers=2)
    base.update(overrides)
    return TrainingConfig(**base)


def _mdgan_run(factory, shards, config, **trainer_kwargs):
    trainer = MDGANTrainer(factory, shards, config, **trainer_kwargs)
    history = trainer.train()
    return trainer, history


# -- building blocks ---------------------------------------------------------------


class TestBatchAheadQueue:
    def test_put_pop_roundtrip(self):
        queue = BatchAheadQueue()
        queue.put(2, ["b2"], generated_at_update=1)
        queue.put(3, ["b3"], generated_at_update=1)
        assert len(queue) == 2
        assert queue.pop(2) == (["b2"], 1)
        assert queue.pop(3) == (["b3"], 1)
        assert queue.pop(4) is None

    def test_pop_discards_skipped_targets(self):
        queue = BatchAheadQueue()
        queue.put(2, ["b2"], 0)
        queue.put(3, ["b3"], 0)
        assert queue.pop(3) == (["b3"], 0)
        assert len(queue) == 0

    def test_targets_must_ascend(self):
        queue = BatchAheadQueue()
        queue.put(5, ["b5"], 0)
        with pytest.raises(ValueError, match="ascend"):
            queue.put(5, ["again"], 0)
        # last_target survives pops, keeping the filler contiguous.
        queue.pop(5)
        assert queue.last_target == 5
        with pytest.raises(ValueError, match="ascend"):
            queue.put(4, ["b4"], 0)

    def test_clear(self):
        queue = BatchAheadQueue()
        queue.put(1, ["b1"], 0)
        queue.clear()
        assert len(queue) == 0

    def test_clear_resets_target_high_water_mark(self):
        # Regression: clear() used to keep last_target, so a crash-path
        # clear followed by a refill at an earlier target than the pre-clear
        # high-water mark raised the ascending-target ValueError.  A cleared
        # queue behaves exactly like a new one.
        queue = BatchAheadQueue()
        queue.put(5, ["b5"], 2)
        queue.clear()
        assert queue.last_target == 0
        queue.put(3, ["b3"], 2)  # earlier than the pre-clear mark: legitimate
        assert queue.pop(3) == (["b3"], 2)
        # The ascending contract still holds within the new generation.
        queue.put(4, ["b4"], 2)
        with pytest.raises(ValueError, match="ascend"):
            queue.put(4, ["again"], 2)


class TestInflightWindow:
    def test_drain_to_depth_is_fifo(self):
        window = InflightWindow(depth=1)
        window.push(("a",))
        assert list(window.drain()) == []
        window.push(("b",))
        assert list(window.drain()) == [("a",)]
        window.push(("c",))
        assert list(window.drain(0)) == [("b",), ("c",)]
        assert len(window) == 0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            InflightWindow(depth=-1)


class TestPipelineStats:
    def test_overlap_dict_summarises(self):
        stats = PipelineStats(depth=2)
        stats.record_staleness(0)
        stats.record_staleness(2)
        stats.observe_in_flight(1)
        stats.observe_in_flight(3)
        stats.lookahead_generations = 4
        payload = stats.as_overlap_dict()
        assert payload["pipeline_depth"] == 2.0
        assert payload["mean_staleness"] == 1.0
        assert payload["max_staleness"] == 2.0
        assert payload["max_in_flight"] == 3.0
        assert payload["lookahead_generations"] == 4.0
        assert payload["p95_staleness"] == pytest.approx(1.9)
        assert payload["iterations"] == 2.0

    def test_empty_overlap_dict(self):
        payload = PipelineStats(depth=1).as_overlap_dict()
        assert payload["mean_staleness"] == 0.0
        assert payload["max_staleness"] == 0.0
        assert payload["p95_staleness"] == 0.0
        assert payload["iterations"] == 0.0


class TestResidentPendingSteps:
    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_handles_collected_out_of_dispatch_order_return_their_own_values(
        self, ring_setup, transport
    ):
        # The slot's FIFO is the only ordering rule: waiting on the later
        # handle first delivers the earlier reply to its own handle on the
        # way, so each handle returns what it returns with one step in flight.
        one_at_a_time = ResidentBackend(max_workers=2, transport=transport)
        swapped = ResidentBackend(max_workers=2, transport=transport)
        try:
            expected = [
                one_at_a_time.start_steps("flgan", _flgan_items2()).result() for _ in range(2)
            ]
            first = swapped.start_steps("flgan", _flgan_items2())
            second = swapped.start_steps("flgan", _flgan_items2())
            later = second.result()
            assert [first.result(), later] == expected
            assert expected[0] != expected[1]
        finally:
            one_at_a_time.close()
            swapped.close()

    def test_drain_inflight_collects_everything(self):
        backend = ResidentBackend(max_workers=2)
        try:
            first = backend.start_steps("flgan", _flgan_items2())
            second = backend.start_steps("flgan", _flgan_items2())
            backend.drain_inflight()
            assert backend._ledger.entries() == []
            # Drained replies reached their handles.
            assert len(first.result()) == len(second.result()) == 1
        finally:
            backend.close()

    def test_dead_handle_raises_after_close(self):
        backend = ResidentBackend(max_workers=2)
        handle = backend.start_steps("flgan", _flgan_items2())
        backend.close()
        with pytest.raises(RuntimeError, match="closed or poisoned"):
            handle.result()

    def test_empty_dispatch_returns_trivial_handle(self):
        backend = ResidentBackend(max_workers=2)
        try:
            handle = backend.start_steps("flgan", [])
            assert handle.result() == []
        finally:
            backend.close()


_FLGAN_STATE_CACHE = {}


def _flgan_items2():
    """One-worker FL-GAN step items against a cached tiny trainer state."""
    if "trainer" not in _FLGAN_STATE_CACHE:
        train, _ = make_gaussian_ring(n_train=40, n_test=10, image_size=8, seed=5)
        factory = build_toy_gan(
            image_shape=train.spec.shape,
            num_classes=train.num_classes,
            latent_dim=8,
            hidden=16,
        )
        trainer = FLGANTrainer(
            factory, [train], TrainingConfig(iterations=1, batch_size=8, seed=3)
        )
        _FLGAN_STATE_CACHE["trainer"] = trainer
    trainer = _FLGAN_STATE_CACHE["trainer"]
    worker = trainer.workers[0]
    return [(worker.index, lambda: trainer._resident_state(worker), None)]


# -- resident-side generation ------------------------------------------------------


class TestResidentGeneration:
    @pytest.fixture(scope="class")
    def conv_generator(self):
        """A BatchNorm-bearing conv generator plus its factory."""
        train, _ = make_mnist_like(n_train=64, n_test=16, image_size=16, seed=7)
        factory = build_architecture(
            "mnist-cnn",
            image_shape=train.spec.shape,
            num_classes=train.num_classes,
            width_factor=0.5,
            use_minibatch_discrimination=False,
        )
        generator = factory.make_generator(np.random.default_rng(5))
        # Warm the BN running stats so the fold-back has non-trivial state.
        sample_generator_images(generator, factory, 16, np.random.default_rng(1))
        return generator, factory

    def test_bitwise_identical_to_serial_loop(self, conv_generator):
        generator, factory = conv_generator
        gen_serial = copy.deepcopy(generator)
        gen_resident = copy.deepcopy(generator)
        rng_serial = np.random.default_rng(42)
        rng_resident = np.random.default_rng(42)
        k, batch = 5, 16
        serial = [
            sample_generator_images(gen_serial, factory, batch, rng_serial, batch_index=j)[0]
            for j in range(k)
        ]
        backend = ResidentBackend(max_workers=2)
        try:
            pending = start_resident_generation(
                backend, gen_resident, factory, batch, k, rng_resident
            )
            assert pending is not None
            got = pending.collect()
        finally:
            backend.close()
        for ref, out in zip(serial, got):
            assert np.array_equal(ref.images, out.images)
            assert np.array_equal(ref.noise, out.noise)
            assert ref.batch_index == out.batch_index
            if ref.labels is None:
                assert out.labels is None
            else:
                assert np.array_equal(ref.labels, out.labels)
        for layer_ref, layer_got in zip(gen_serial.layers, gen_resident.layers):
            if isinstance(layer_ref, BatchNorm):
                assert np.array_equal(layer_ref.running_mean, layer_got.running_mean)
                assert np.array_equal(layer_ref.running_var, layer_got.running_var)
        assert rng_serial.bit_generator.state == rng_resident.bit_generator.state

    def test_generator_installs_once_then_ships_params_only(self, conv_generator):
        generator, factory = conv_generator
        generator = copy.deepcopy(generator)
        backend = ResidentBackend(max_workers=2)
        try:
            rng = np.random.default_rng(3)
            start_resident_generation(backend, generator, factory, 8, 4, rng).collect()
            installs = backend.install_count
            assert installs == 2  # one generator copy per used slot
            bytes_after_install = backend.ipc_bytes_sent
            start_resident_generation(backend, generator, factory, 8, 4, rng).collect()
            assert backend.install_count == installs
            # The second round ships only parameters + inputs, no structure.
            assert backend.ipc_bytes_sent - bytes_after_install < bytes_after_install
        finally:
            backend.close()

    def test_declined_for_dropout_and_non_resident_backends(self, conv_generator):
        generator, factory = conv_generator
        serial = create_backend("serial", 2)
        backend = ResidentBackend(max_workers=2)
        try:
            assert not can_generate_resident(serial, generator, 4)
            assert can_generate_resident(backend, generator, 1)
            dropout_gen = copy.deepcopy(generator)
            dropout_gen.layers.append(Dropout(0.3))
            assert not can_generate_resident(backend, dropout_gen, 4)
            assert (
                start_resident_generation(
                    backend, dropout_gen, factory, 8, 4, np.random.default_rng(0)
                )
                is None
            )
        finally:
            serial.close()
            backend.close()


# -- end-to-end pipelined training -------------------------------------------------


class TestPipelinedMDGAN:
    def test_depth_zero_records_no_pipeline_fields(self, ring_setup):
        shards, factory = ring_setup
        _, history = _mdgan_run(factory, shards, _config("serial"))
        assert history.staleness == []
        assert history.overlap == {}

    def test_depth_one_staleness_ramp(self, ring_setup):
        shards, factory = ring_setup
        _, history = _mdgan_run(
            factory, shards, _config("serial", pipeline_depth=1)
        )
        # Cold start generates iteration 1's batches on the spot (staleness
        # 0); every later iteration consumes a one-iteration-old batch set.
        assert history.staleness == [0, 1, 1, 1, 1, 1]
        assert history.overlap["pipeline_depth"] == 1.0
        assert history.overlap["max_staleness"] == 1.0
        assert history.overlap["lookahead_generations"] == 5.0
        assert history.overlap["immediate_generations"] == 1.0
        assert len(history.staleness) == len(history.iterations)

    def test_depth_two_staleness_caps_at_depth(self, ring_setup):
        shards, factory = ring_setup
        _, history = _mdgan_run(
            factory, shards, _config("serial", pipeline_depth=2)
        )
        assert history.staleness == [0, 1, 2, 2, 2, 2]
        assert max(history.staleness) <= 2

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_fixed_depth_deterministic_across_backends(self, transport, ring_setup):
        shards, factory = ring_setup
        ref_trainer, ref = _mdgan_run(
            factory, shards, _config("serial", pipeline_depth=1)
        )
        got_trainer, got = _mdgan_run(
            factory, shards, _config("resident", transport=transport, pipeline_depth=1)
        )
        assert got.generator_loss == ref.generator_loss
        assert got.discriminator_loss == ref.discriminator_loss
        assert got.staleness == ref.staleness
        assert got.events == ref.events
        assert np.array_equal(
            got_trainer.generator.get_parameters(),
            ref_trainer.generator.get_parameters(),
        )

    def test_train_iteration_is_the_pipelined_body(self, ring_setup):
        # Driving the public per-iteration body by hand runs the same
        # schedule train() does, staleness column included.
        shards, factory = ring_setup
        config = _config("serial", pipeline_depth=1)
        ref_trainer, ref = _mdgan_run(factory, shards, config)
        trainer = MDGANTrainer(factory, shards, config)
        for iteration in range(1, config.iterations + 1):
            trainer.train_iteration(iteration)
        got = trainer.history
        assert got.staleness == ref.staleness == [0, 1, 1, 1, 1, 1]
        assert got.iterations == ref.iterations
        assert got.generator_loss == ref.generator_loss
        assert got.discriminator_loss == ref.discriminator_loss
        assert got.events == ref.events
        assert np.array_equal(
            trainer.generator.get_parameters(), ref_trainer.generator.get_parameters()
        )
        for worker, ref_worker in zip(trainer.workers, ref_trainer.workers):
            assert np.array_equal(
                worker.discriminator.get_parameters(),
                ref_worker.discriminator.get_parameters(),
            )

    def test_depth_changes_trajectory_vs_sync(self, ring_setup):
        # Not an accident of the toy setup: stale batches really do feed the
        # workers, so the trajectory must differ from the synchronous one.
        shards, factory = ring_setup
        _, sync = _mdgan_run(factory, shards, _config("serial"))
        _, pipe = _mdgan_run(factory, shards, _config("serial", pipeline_depth=1))
        assert pipe.generator_loss != sync.generator_loss

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_pipelined_with_crashes_and_partial_participation(self, transport, ring_setup):
        shards, factory = ring_setup

        def build(backend, **options):
            return MDGANTrainer(
                factory,
                shards,
                _config(backend, pipeline_depth=1, participation_fraction=0.75, **options),
                crash_schedule=CrashSchedule({2: ["worker-1"], 4: ["worker-3"]}),
            )

        ref_trainer = build("serial")
        ref = ref_trainer.train()
        assert [e["kind"] for e in ref.events].count("crash") == 2
        got_trainer = build("resident", transport=transport)
        got = got_trainer.train()
        assert got.generator_loss == ref.generator_loss
        assert got.staleness == ref.staleness
        assert got.events == ref.events
        assert np.array_equal(
            got_trainer.generator.get_parameters(),
            ref_trainer.generator.get_parameters(),
        )

    def test_cold_start_generates_inline_and_lookahead_runs_on_slots(self, ring_setup):
        shards, factory = ring_setup
        # The cold-start miss generates inline on every backend; only the
        # resident protocol moves the lookahead generation onto its pool
        # slots (the dedicated generation op).
        _, inline = _mdgan_run(
            factory, shards, _config("serial", pipeline_depth=1, num_batches=4)
        )
        assert inline.overlap["immediate_generations"] == 1.0
        assert inline.overlap["resident_generations"] == 0.0
        _, resident = _mdgan_run(
            factory, shards, _config("resident", pipeline_depth=1, num_batches=4)
        )
        assert resident.overlap["immediate_generations"] == 1.0
        assert (
            resident.overlap["resident_generations"]
            == resident.overlap["lookahead_generations"]
            > 0
        )
        # Scheduling, not numerics: both backends still agree bitwise.
        assert inline.generator_loss == resident.generator_loss

    def test_all_crash_break_still_records_overlap(self, ring_setup):
        # Early-exit path 1: the all_workers_crashed break must not drop the
        # overlap/staleness summary, and the history must round-trip.
        shards, factory = ring_setup
        trainer = MDGANTrainer(
            factory,
            shards,
            _config("serial", pipeline_depth=1),
            crash_schedule=CrashSchedule({3: [f"worker-{i}" for i in range(4)]}),
        )
        history = trainer.train()
        assert any(e["kind"] == "all_workers_crashed" for e in history.events)
        assert history.overlap["pipeline_depth"] == 1.0
        assert history.staleness  # the pre-crash iterations kept their records
        restored = TrainingHistory.from_dict(history.as_dict())
        assert restored.overlap == history.overlap
        assert restored.staleness == history.staleness

    @pytest.mark.parametrize("backend", ("serial", "resident"))
    def test_exception_still_records_overlap(self, backend, ring_setup):
        # Early-exit path 2: an exception mid-run (here: the evaluator)
        # surfaces unchanged while the overlap summary is still recorded.
        shards, factory = ring_setup

        class _ExplodingEvaluator:
            def evaluate(self, sample_fn, iteration):
                raise ValueError("evaluation exploded")

        trainer = MDGANTrainer(
            factory,
            shards,
            _config(backend, pipeline_depth=1, eval_every=3),
            evaluator=_ExplodingEvaluator(),
        )
        with pytest.raises(ValueError, match="evaluation exploded"):
            trainer.train()
        assert trainer.history.overlap["pipeline_depth"] == 1.0
        assert len(trainer.history.staleness) == 3
        restored = TrainingHistory.from_dict(trainer.history.as_dict())
        assert restored.overlap == trainer.history.overlap
        assert restored.staleness == trainer.history.staleness
        # The failed run's cleanup closed the backend (best effort).
        assert trainer._backend is None

    def test_staleness_counts_missed_updates(self, ring_setup):
        shards, factory = ring_setup
        trainer, history = _mdgan_run(
            factory, shards, _config("resident", pipeline_depth=1)
        )
        # One generator update per non-empty iteration; at depth 1 every
        # post-warmup batch set missed exactly the previous iteration's.
        assert trainer._gen_update_count == len(history.iterations)
        assert history.overlap["mean_staleness"] == pytest.approx(5 / 6)


class TestPipelinedFLGAN:
    def test_resident_windowed_is_bitwise_identical(self, ring_setup):
        shards, factory = ring_setup

        def signature(backend, depth):
            trainer = FLGANTrainer(
                factory,
                shards,
                _config(backend, epochs_per_swap=0.4, pipeline_depth=depth),
            )
            history = trainer.train()
            return (
                history.generator_loss,
                history.events,
                trainer.server_generator.get_parameters(),
                trainer.cluster.meter.total_bytes(),
                dict(history.overlap),
            )

        ref = signature("serial", 0)
        assert any(e["kind"] == "federated_round" for e in ref[1])
        for depth in (1, 3):
            got = signature("resident", depth)
            assert got[0] == ref[0]
            assert got[1] == ref[1]
            assert np.array_equal(got[2], ref[2])
            assert got[3] == ref[3]
            # The window genuinely overlapped (> 1 in flight at the peak).
            assert got[4]["max_in_flight"] >= 2

    def test_exception_still_records_overlap(self, ring_setup):
        shards, factory = ring_setup

        class _ExplodingEvaluator:
            def evaluate(self, sample_fn, iteration):
                raise ValueError("evaluation exploded")

        trainer = FLGANTrainer(
            factory,
            shards,
            _config("resident", epochs_per_swap=0.4, pipeline_depth=2, eval_every=3),
            evaluator=_ExplodingEvaluator(),
        )
        with pytest.raises(ValueError, match="evaluation exploded"):
            trainer.train()
        assert trainer.history.overlap["pipeline_depth"] == 2.0
        restored = TrainingHistory.from_dict(trainer.history.as_dict())
        assert restored.overlap == trainer.history.overlap

    def test_serial_windowed_matches_sync(self, ring_setup):
        # serial runs the same window as the pool: its inline slot answers
        # each step at dispatch, and the merge only charges and records.
        shards, factory = ring_setup
        trainer = FLGANTrainer(
            factory, shards, _config("serial", epochs_per_swap=0.4, pipeline_depth=2)
        )
        history = trainer.train()
        assert history.overlap["max_in_flight"] >= 2
        ref = FLGANTrainer(
            factory, shards, _config("serial", epochs_per_swap=0.4)
        ).train()
        assert history.generator_loss == ref.generator_loss

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    @pytest.mark.parametrize("depth", [1, 2])
    def test_serial_depth_matches_sync_with_rounds_longer_than_the_window(
        self, ring_setup, depth, transport
    ):
        # A round of more than depth + 1 iterations keeps older steps in
        # flight behind newer ones between rounds: a late merge must leave
        # the inline slot's RNG/sampler cursors (the worker's own) alone.
        shards, factory = ring_setup

        def run(backend, depth, **options):
            config = _config(backend, epochs_per_swap=0.8, pipeline_depth=depth, **options)
            with FLGANTrainer(factory, shards, config) as trainer:
                history = trainer.train()
                assert trainer.iterations_per_round > depth + 1
                return (
                    history.generator_loss,
                    history.events,
                    trainer.server_generator.get_parameters(),
                    history.overlap.get("max_in_flight"),
                )

        ref = run("serial", 0)
        assert any(e["kind"] == "federated_round" for e in ref[1])
        got = run("serial", depth)
        assert got[:2] == ref[:2]
        assert np.array_equal(got[2], ref[2])
        pooled = run("resident", depth, transport=transport)
        assert pooled[:2] == ref[:2]
        assert np.array_equal(pooled[2], ref[2])
        assert pooled[3] >= 2
        # The overlap record does not depend on placement.
        assert got[3] == pooled[3]

def test_resident_state_type_still_used():
    """Guard: the resident MD-GAN install payload keeps its public shape."""
    fields = set(MDGANResidentState.__dataclass_fields__)
    assert {"worker_index", "discriminator", "sampler", "rng"} <= fields
