"""Tests for the MD-GAN trainer (Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.core import MDGANTrainer, TrainingConfig
from repro.nn.serialize import FLOAT_BYTES
from repro.simulation import CrashSchedule, MessageKind, SERVER_NAME, worker_name


def make_trainer(factory, shards, **overrides):
    defaults = dict(iterations=10, batch_size=8, epochs_per_swap=1.0, seed=21)
    defaults.update(overrides)
    config = TrainingConfig(**defaults)
    return MDGANTrainer(factory, shards, config)


class TestSetup:
    def test_requires_shards(self, toy_factory, tiny_config):
        with pytest.raises(ValueError):
            MDGANTrainer(toy_factory, [], tiny_config)

    def test_one_discriminator_per_worker_and_single_generator(
        self, ring_shards, toy_factory
    ):
        trainer = make_trainer(toy_factory, ring_shards)
        assert len(trainer.workers) == len(ring_shards)
        # Discriminators are independently initialised objects.
        ids = {id(w.discriminator) for w in trainer.workers}
        assert len(ids) == len(ring_shards)

    def test_k_defaults_to_floor_log_n(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, num_batches=None)
        assert trainer.num_batches == max(1, int(math.floor(math.log(len(ring_shards)))))

    def test_swap_period_is_m_e_over_b(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, batch_size=10, epochs_per_swap=2.0)
        m = min(len(s) for s in ring_shards)
        assert trainer.swap_period == round(m * 2.0 / 10)

    def test_swap_disabled_gives_zero_period(self, ring_shards, toy_factory):
        config = TrainingConfig(iterations=5, batch_size=8, epochs_per_swap=math.inf)
        trainer = MDGANTrainer(toy_factory, ring_shards, config)
        assert trainer.swap_period == 0

    def test_precision_opt_in_reaches_models_and_shards(self, ring_shards, toy_factory):
        # An explicit float64 config must govern the whole pipeline — the
        # worker shards included, not just model parameters.
        config = TrainingConfig(iterations=1, batch_size=8, precision="float64")
        trainer = MDGANTrainer(toy_factory, ring_shards, config)
        assert trainer.generator.dtype == np.float64
        assert all(w.discriminator.dtype == np.float64 for w in trainer.workers)
        assert all(w.dataset.images.dtype == np.float64 for w in trainer.workers)
        real_images, _ = trainer.workers[0].sampler.next_batch()
        assert real_images.dtype == np.float64
        # The shared fixture's shards stay float32 (astype copies).
        assert all(s.images.dtype == np.float32 for s in ring_shards)


class TestTrainingLoop:
    def test_history_and_losses(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, iterations=8)
        history = trainer.train()
        assert history.algorithm == "md-gan"
        assert len(history.iterations) == 8
        assert all(np.isfinite(history.generator_loss))
        assert history.config["num_workers"] == len(ring_shards)

    def test_generator_parameters_update_each_iteration(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, iterations=1)
        before = trainer.generator.get_parameters()
        trainer.train()
        assert not np.array_equal(before, trainer.generator.get_parameters())

    def test_deterministic_given_seed(self, ring_shards, toy_factory):
        a = make_trainer(toy_factory, ring_shards, iterations=5).train()
        b = make_trainer(toy_factory, ring_shards, iterations=5).train()
        np.testing.assert_allclose(a.generator_loss, b.generator_loss)

    def test_evaluation_hook(self, ring_shards, toy_factory, ring_evaluator):
        config = TrainingConfig(iterations=6, batch_size=8, eval_every=3, seed=2)
        trainer = MDGANTrainer(toy_factory, ring_shards, config, evaluator=ring_evaluator)
        history = trainer.train()
        assert [e.iteration for e in history.evaluations] == [3, 6]

    def test_sample_images(self, ring_shards, toy_factory, rng):
        trainer = make_trainer(toy_factory, ring_shards)
        images = trainer.sample_images(5, rng)
        assert images.shape == (5,) + toy_factory.image_shape


def _assignment(work, batches):
    """``worker index -> {"g": batch index, "d": batch index}`` from step inputs."""
    index_of = {id(batch.images): j for j, batch in enumerate(batches)}
    return {
        worker.index: {"g": index_of[id(step.x_g)], "d": index_of[id(step.x_d)]}
        for worker, step in work
    }


def _batch_bytes(meter, d, b=8):
    """Assert the per-message closed forms; return the message counts.

    Every ``GENERATED_BATCHES`` message carries ``X_d`` and ``X_g`` (2bd
    floats) and every ``ERROR_FEEDBACK`` message one ``F_n`` (bd floats).
    """
    batches = meter.total_messages(MessageKind.GENERATED_BATCHES)
    feedbacks = meter.total_messages(MessageKind.ERROR_FEEDBACK)
    assert meter.total_bytes(MessageKind.GENERATED_BATCHES) == batches * 2 * b * d * FLOAT_BYTES
    assert meter.total_bytes(MessageKind.ERROR_FEEDBACK) == feedbacks * b * d * FLOAT_BYTES
    return batches, feedbacks


class TestCommunicationPattern:
    def test_each_worker_receives_two_batches_per_iteration(
        self, ring_shards, toy_factory
    ):
        trainer = make_trainer(toy_factory, ring_shards, iterations=3, batch_size=8)
        trainer.train()
        meter = trainer.cluster.meter
        d = toy_factory.object_size
        expected = 3 * len(ring_shards) * 2 * 8 * d * FLOAT_BYTES
        assert meter.total_bytes(MessageKind.GENERATED_BATCHES) == expected

    def test_feedback_bytes_match_bd_per_worker(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, iterations=3, batch_size=8)
        trainer.train()
        meter = trainer.cluster.meter
        d = toy_factory.object_size
        expected = 3 * len(ring_shards) * 8 * d * FLOAT_BYTES
        assert meter.total_bytes(MessageKind.ERROR_FEEDBACK) == expected
        assert meter.node_ingress(SERVER_NAME, MessageKind.ERROR_FEEDBACK) == expected

    @pytest.mark.parametrize("case", ["pipeline_depth_1", "crash_schedule"])
    def test_batch_and_feedback_bytes_closed_form(self, ring_shards, toy_factory, case):
        # One GENERATED_BATCHES / ERROR_FEEDBACK pair per participating
        # worker per iteration: lookahead generation moves no batch, and a
        # crashed worker is never charged again.
        config = TrainingConfig(
            iterations=6, batch_size=8, seed=3,
            pipeline_depth=1 if case == "pipeline_depth_1" else 0,
        )
        schedule = CrashSchedule({2: [worker_name(0)], 4: [worker_name(1)]})
        if case == "crash_schedule":
            trainer = MDGANTrainer(toy_factory, ring_shards, config, crash_schedule=schedule)
        else:
            trainer = MDGANTrainer(toy_factory, ring_shards, config)
        trainer.train()
        n = len(ring_shards)
        crashed = case == "crash_schedule"
        units = sum(n - crashed * ((t >= 2) + (t >= 4)) for t in range(1, 7))
        assert _batch_bytes(trainer.cluster.meter, toy_factory.object_size) == (units, units)

    def test_async_aggregation_charges_one_pair_per_folded_unit(
        self, ring_shards, toy_factory
    ):
        trainer = make_trainer(
            toy_factory, ring_shards, iterations=4, aggregation="async", max_staleness=2
        )
        trainer.train()
        batches, feedbacks = _batch_bytes(trainer.cluster.meter, toy_factory.object_size)
        # Units still in flight at the end are answered but never folded.
        assert 0 < feedbacks <= batches

    def test_swap_bytes_match_exchanged_discriminators(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, iterations=10, batch_size=50)
        history = trainer.train()
        swaps = history.events_of_kind("swap")
        assert swaps
        theta_d = trainer.workers[0].discriminator.num_parameters
        exchanged = sum(e["exchanged"] for e in swaps)
        meter = trainer.cluster.meter
        assert meter.total_messages(MessageKind.DISCRIMINATOR_SWAP) == exchanged
        assert meter.total_bytes(MessageKind.DISCRIMINATOR_SWAP) == (
            exchanged * theta_d * FLOAT_BYTES
        )

    def test_generated_batch_memory_charged_at_object_size(
        self, ring_shards, toy_factory
    ):
        # Section IV-B3 cost model: generating a batch costs O(b |w|) ops,
        # but *holding* k batches takes k*b*d floats (d = object size) — the
        # same convention _aggregate_feedback uses — not k*b*|w|.
        trainer = make_trainer(toy_factory, ring_shards, iterations=1, batch_size=8)
        k = 3
        trainer._generate_batches(k)
        ledger = trainer.cluster.server.compute
        assert ledger.peak_memory_floats == k * 8 * toy_factory.object_size
        # The regression is meaningful: the old |w|-based figure differs.
        assert toy_factory.object_size != trainer.generator.num_parameters

    def test_k_controls_distinct_batches(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, num_batches=1, iterations=1)
        batches = trainer._generate_batches(trainer.num_batches)
        assert len(batches) == 1
        trainer2 = make_trainer(toy_factory, ring_shards, num_batches=4, iterations=1)
        batches2 = trainer2._generate_batches(trainer2.num_batches)
        assert len(batches2) == 4

    def test_assignment_uses_round_robin(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, num_batches=2, iterations=1)
        batches = trainer._generate_batches(2)
        assignment = _assignment(trainer._distribute_batches(1, batches, trainer.workers), batches)
        for worker in trainer.workers:
            assert assignment[worker.index]["g"] == worker.index % 2
            assert assignment[worker.index]["d"] == (worker.index + 1) % 2

    def test_assignment_keyed_on_worker_index_not_enumeration_order(
        self, ring_shards, toy_factory
    ):
        # The paper's X_n^(g) = X^(n mod k) uses the worker index n, so a
        # worker keeps its batch assignment when peers crash or sit out an
        # iteration (partial participation must not reshuffle assignments).
        trainer = make_trainer(toy_factory, ring_shards, num_batches=2, iterations=1)
        batches = trainer._generate_batches(2)
        subset = [trainer.workers[1], trainer.workers[3]]
        assignment = _assignment(trainer._distribute_batches(1, batches, subset), batches)
        full = _assignment(trainer._distribute_batches(2, batches, trainer.workers), batches)
        assert set(assignment) == {1, 3}
        for index in (1, 3):
            assert assignment[index] == full[index]
            assert assignment[index]["g"] == index % 2
            assert assignment[index]["d"] == (index + 1) % 2

    def test_distribute_batches_charges_one_message_per_handed_step_input(
        self, ring_shards, toy_factory
    ):
        trainer = make_trainer(toy_factory, ring_shards, num_batches=2, iterations=1)
        batches = trainer._generate_batches(2)
        subset = [trainer.workers[1], trainer.workers[3]]
        work = trainer._distribute_batches(5, batches, subset)
        meter = trainer.cluster.meter
        per_message = 2 * 8 * toy_factory.object_size * FLOAT_BYTES
        assert [w.index for w, _ in work] == [1, 3]
        assert meter.total_messages(MessageKind.GENERATED_BATCHES) == len(subset)
        assert meter.node_egress(SERVER_NAME) == len(subset) * per_message
        for worker in trainer.workers:
            expected = per_message if worker.index in (1, 3) else 0
            name = worker_name(worker.index)
            assert meter.node_ingress(name, MessageKind.GENERATED_BATCHES) == expected
            assert meter.ingress_by_iteration[5].get(name, 0) == expected

    def test_merge_worker_result_charges_feedback_to_the_server(
        self, ring_shards, toy_factory
    ):
        from repro.runtime import mdgan_step

        trainer = make_trainer(toy_factory, ring_shards, iterations=1)
        batches = trainer._generate_batches(trainer.num_batches)
        worker, step_input = trainer._distribute_batches(1, batches, trainer.workers[2:3])[0]
        result = mdgan_step(trainer._resident_state(worker), step_input)
        meter = trainer.cluster.meter
        assert meter.total_messages(MessageKind.ERROR_FEEDBACK) == 0
        step = trainer._merge_worker_result(1, worker, result)
        expected = 8 * toy_factory.object_size * FLOAT_BYTES
        assert step.feedback.size * FLOAT_BYTES == expected
        assert meter.summary_rows()[0] == {
            "sender": worker_name(2), "recipient": SERVER_NAME,
            "kind": "error_feedback", "messages": 1, "bytes": expected,
        }
        assert meter.ingress_by_iteration[1][SERVER_NAME] == expected


class TestFeedbackAggregation:
    def test_averaged_path_applies_one_generator_step(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, iterations=1)
        trainer.train_iteration(1)
        # All worker feedbacks are averaged into a single Adam step.
        assert trainer._gen_opt.iterations == 1

    def test_sync_trainer_applies_one_update_per_iteration(
        self, ring_shards, toy_factory, tiny_config
    ):
        trainer = MDGANTrainer(toy_factory, ring_shards, tiny_config)
        trainer.train()
        assert trainer._gen_opt.iterations == tiny_config.iterations

    def test_averaged_gradient_is_mean_of_individual_feedback_gradients(
        self, ring_shards, toy_factory
    ):
        trainer = make_trainer(toy_factory, ring_shards, iterations=1)
        participants = trainer._participating_workers()
        k = min(trainer.num_batches, len(participants))
        batches = trainer._generate_batches(k)
        work = trainer._distribute_batches(1, batches, participants)
        # Run steps 2-3 as the bare step function on each worker's own
        # objects, then merge as train_iteration does.
        from repro.core.gan_ops import apply_feedback_to_generator
        from repro.runtime import mdgan_step

        results = [mdgan_step(trainer._resident_state(w), step) for w, step in work]
        index_of = {id(batch.images): j for j, batch in enumerate(batches)}
        feedback = []
        for (worker, handed), result in zip(work, results):
            step = trainer._merge_worker_result(1, worker, result)
            feedback.append((index_of[id(handed.x_g)], step.feedback))
        assert len(feedback) == len(participants)

        individual = []
        for batch_index, f_n in feedback:
            trainer.generator.zero_grad()
            apply_feedback_to_generator(
                trainer.generator,
                trainer.factory,
                [batches[batch_index]],
                [f_n],
                weights=[1.0],
            )
            individual.append(trainer.generator.get_gradients().astype(np.float64))

        trainer.generator.zero_grad()
        apply_feedback_to_generator(
            trainer.generator,
            trainer.factory,
            [batches[i] for i, _ in feedback],
            [f_n for _, f_n in feedback],
        )
        averaged = trainer.generator.get_gradients().astype(np.float64)
        np.testing.assert_allclose(
            averaged, np.mean(individual, axis=0), rtol=5e-5, atol=1e-7
        )


class TestSwap:
    def test_swap_preserves_parameter_multiset(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, iterations=1)
        before = sorted(
            float(w.discriminator.get_parameters().sum()) for w in trainer.workers
        )
        trainer._swap_discriminators(iteration=1)
        after = sorted(
            float(w.discriminator.get_parameters().sum()) for w in trainer.workers
        )
        np.testing.assert_allclose(before, after)

    def test_swap_charges_each_vector_on_its_worker_to_worker_link(
        self, ring_shards, toy_factory
    ):
        trainer = make_trainer(toy_factory, ring_shards, iterations=1)
        by_name = {worker_name(w.index): w for w in trainer.workers}
        before = {name: w.discriminator.get_parameters() for name, w in by_name.items()}
        trainer._swap_discriminators(iteration=1)
        rows = trainer.cluster.meter.summary_rows()
        assert rows
        theta_d = trainer.workers[0].discriminator.num_parameters
        recipients = [row["recipient"] for row in rows]
        assert len(set(recipients)) == len(recipients)
        for row in rows:
            assert row["kind"] == "discriminator_swap"
            assert row["sender"] != row["recipient"]
            assert SERVER_NAME not in (row["sender"], row["recipient"])
            assert (row["messages"], row["bytes"]) == (1, theta_d * FLOAT_BYTES)
            # The charged vector is the one the recipient now holds.
            np.testing.assert_array_equal(
                by_name[row["recipient"]].discriminator.get_parameters(),
                before[row["sender"]],
            )

    def test_swap_events_logged_at_expected_period(self, ring_shards, toy_factory):
        trainer = make_trainer(toy_factory, ring_shards, iterations=10, batch_size=50)
        # swap period = m / b; with shards of ~200 samples and b=50 -> every 4.
        history = trainer.train()
        period = trainer.swap_period
        expected_swaps = 10 // period
        swap_messages = trainer.cluster.meter.total_messages(
            MessageKind.DISCRIMINATOR_SWAP
        )
        # Each swap event exchanges at most N discriminators.
        assert swap_messages <= expected_swaps * len(ring_shards)
        assert len(history.events_of_kind("swap")) <= expected_swaps

    def test_no_swaps_when_disabled(self, ring_shards, toy_factory):
        config = TrainingConfig(iterations=10, batch_size=50, epochs_per_swap=math.inf)
        trainer = MDGANTrainer(toy_factory, ring_shards, config)
        trainer.train()
        assert trainer.cluster.meter.total_messages(MessageKind.DISCRIMINATOR_SWAP) == 0


class TestCrashes:
    def test_crashed_workers_stop_participating(self, ring_shards, toy_factory):
        schedule = CrashSchedule({2: [worker_name(0)], 4: [worker_name(1)]})
        config = TrainingConfig(iterations=6, batch_size=8, seed=3)
        trainer = MDGANTrainer(
            toy_factory, ring_shards, config, crash_schedule=schedule
        )
        history = trainer.train()
        assert len(trainer._alive_workers()) == len(ring_shards) - 2
        assert len(history.events_of_kind("crash")) == 2
        # Training continued to the end despite the crashes.
        assert history.iterations[-1] == 6

    def test_all_workers_crashing_stops_training(self, ring_shards, toy_factory):
        schedule = CrashSchedule({1: [worker_name(i) for i in range(len(ring_shards))]})
        config = TrainingConfig(iterations=10, batch_size=8, seed=3)
        trainer = MDGANTrainer(
            toy_factory, ring_shards, config, crash_schedule=schedule
        )
        history = trainer.train()
        assert len(history.iterations) < 10
        assert history.events_of_kind("all_workers_crashed")

    def test_k_shrinks_with_alive_workers(self, ring_shards, toy_factory):
        schedule = CrashSchedule({1: [worker_name(0), worker_name(1), worker_name(2)]})
        config = TrainingConfig(iterations=3, batch_size=8, num_batches=4, seed=3)
        trainer = MDGANTrainer(
            toy_factory, ring_shards, config, crash_schedule=schedule
        )
        history = trainer.train()
        # Only one worker remains; training still records losses.
        assert len(history.iterations) == 3


class TestParticipation:
    def test_partial_participation_reduces_traffic(self, ring_shards, toy_factory):
        full = make_trainer(toy_factory, ring_shards, iterations=6)
        full.train()
        partial_config = TrainingConfig(
            iterations=6, batch_size=8, participation_fraction=0.5, seed=21
        )
        partial = MDGANTrainer(toy_factory, ring_shards, partial_config)
        partial.train()
        assert (
            partial.cluster.meter.total_bytes(MessageKind.GENERATED_BATCHES)
            < full.cluster.meter.total_bytes(MessageKind.GENERATED_BATCHES)
        )

    def test_sampled_trainer_limits_participants(self, ring_shards, toy_factory):
        config = TrainingConfig(iterations=8, batch_size=8, seed=5, participation_fraction=0.5)
        trainer = MDGANTrainer(toy_factory, ring_shards, config)
        trainer.train()
        assert trainer.config.participation_fraction == 0.5
        # With 4 workers and fraction 0.5, each iteration ships batches to 2 workers.
        per_iteration_messages = (
            trainer.cluster.meter.total_messages(MessageKind.GENERATED_BATCHES) / 8
        )
        assert per_iteration_messages == 2

    def test_sampled_trainer_still_trains_generator(self, ring_shards, toy_factory):
        config = TrainingConfig(iterations=5, batch_size=8, seed=5, participation_fraction=0.5)
        trainer = MDGANTrainer(toy_factory, ring_shards, config)
        before = trainer.generator.get_parameters()
        trainer.train()
        assert not np.array_equal(before, trainer.generator.get_parameters())
