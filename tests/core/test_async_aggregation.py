"""Bounded-staleness asynchronous aggregation tests.

Three layers of contract:

* the :class:`BoundedStalenessScheduler` unit semantics — gate, blocking
  dispatch, whole-buffer flushes, the staleness accounting;
* ``TrainingConfig(aggregation="async")`` validation;
* end-to-end async runs of both trainers on every backend, pinning the
  headline invariant — no applied contribution is ever older than
  ``max_staleness`` global updates (checked against the per-worker record in
  :attr:`TrainingHistory.worker_staleness`) — plus the serial degenerate
  cases: deterministic round-robin, and FL-GAN's all-fresh flush reproducing
  the synchronous FedAvg bitwise.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.core.async_aggregation import BoundedStalenessScheduler, staleness_weights
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_toy_gan
from repro.simulation import CrashSchedule, worker_name

BACKENDS = ("serial", "thread", "process", "resident")


@pytest.fixture(scope="module")
def small_shards_and_factory():
    train, _ = make_gaussian_ring(n_train=160, n_test=40, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        latent_dim=8,
        hidden=16,
    )
    shards = partition_iid(train, 4, np.random.default_rng(3))
    return shards, factory


def _config(**overrides) -> TrainingConfig:
    base = dict(
        iterations=6,
        batch_size=8,
        seed=11,
        aggregation="async",
        max_staleness=2,
        max_workers=2,
    )
    base.update(overrides)
    return TrainingConfig(**base)


# -- scheduler unit semantics ------------------------------------------------------


class TestScheduler:
    def test_dispatch_completion_flush_cycle(self):
        sched = BoundedStalenessScheduler(max_staleness=2)
        sched.note_dispatch(0)
        sched.note_dispatch(1)
        assert sched.in_flight == 2
        contribution = sched.note_completion(0, "payload-0")
        assert contribution.dispatched_at == 0
        assert sched.buffered == 1
        assert sched.tracked_keys() == {0, 1}  # buffered 0 still not idle
        taken = sched.take_buffered()
        assert [c.key for c in taken] == [0]
        assert sched.staleness_of(taken[0]) == 0
        sched.note_applied()
        assert sched.updates == 1
        assert sched.tracked_keys() == {1}

    def test_duplicate_dispatch_rejected(self):
        sched = BoundedStalenessScheduler(max_staleness=1)
        sched.note_dispatch(0)
        with pytest.raises(RuntimeError, match="already in flight"):
            sched.note_dispatch(0)

    def test_gate_blocks_when_bound_would_be_crossed(self):
        # max_staleness=0: any in-flight worker closes the gate (one more
        # update would make its eventual contribution age 1 > 0).
        sched = BoundedStalenessScheduler(max_staleness=0)
        assert sched.gate_open  # vacuously: nothing in flight
        sched.note_dispatch(0)
        assert not sched.gate_open
        sched.note_completion(0, None)
        assert sched.gate_open

    def test_gate_opens_within_bound(self):
        sched = BoundedStalenessScheduler(max_staleness=2)
        sched.note_dispatch(0)
        # Simulate two updates carried by other workers.
        for _ in range(2):
            sched.note_dispatch(9)
            sched.note_completion(9, None)
            assert sched.gate_open
            sched.take_buffered()
            sched.note_applied()
        # Worker 0's mark is now 2 updates old: a third would cross the bound.
        assert not sched.gate_open
        sched.note_completion(0, None)
        assert sched.gate_open
        assert sched.staleness_of(sched.take_buffered()[0]) == 2

    def test_note_applied_raises_on_violation(self):
        # Applying without consulting the gate is a programming error the
        # scheduler turns into a loud failure instead of silent staleness.
        sched = BoundedStalenessScheduler(max_staleness=0)
        sched.note_dispatch(0)
        with pytest.raises(RuntimeError, match="staleness bound 0 violated"):
            sched.note_applied()

    def test_backdated_dispatch_mark_ages_against_gate(self):
        # The lookahead store dispatches units generated *before* the
        # current update count; their backdated mark must age against the
        # gate exactly like a fresh dispatch at that earlier point.
        sched = BoundedStalenessScheduler(max_staleness=1)
        sched.note_dispatch(0, mark=0)
        sched.note_dispatch(9)
        sched.note_completion(9, None)
        sched.take_buffered()
        sched.note_applied()
        # Worker 0's backdated unit is now 1 update old: one more update
        # would cross the bound, so the gate closes until it completes.
        assert not sched.gate_open
        sched.note_completion(0, None)
        assert sched.gate_open
        assert sched.staleness_of(sched.take_buffered()[0]) == 1

    def test_dispatch_mark_outside_update_range_rejected(self):
        sched = BoundedStalenessScheduler(max_staleness=1)
        with pytest.raises(ValueError, match="dispatch mark"):
            sched.note_dispatch(0, mark=1)  # from the future
        with pytest.raises(ValueError, match="dispatch mark"):
            sched.note_dispatch(0, mark=-1)
        sched.note_dispatch(0, mark=0)  # mark == updates is a fresh dispatch
        assert sched.in_flight == 1

    def test_discard_removes_in_flight_mark(self):
        sched = BoundedStalenessScheduler(max_staleness=0)
        sched.note_dispatch(0)
        sched.discard(0)
        assert sched.gate_open
        assert sched.tracked_keys() == set()
        sched.discard(0)  # idempotent

    def test_staleness_weights_fresh_is_uniform(self):
        assert staleness_weights([0, 0, 0]) == pytest.approx([1 / 3] * 3)

    def test_staleness_weights_decay_and_normalise(self):
        weights = staleness_weights([0, 1, 3])
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] > weights[1] > weights[2]
        assert weights[0] / weights[1] == pytest.approx(2.0)  # 1 vs 1/2


# -- config validation -------------------------------------------------------------


class TestAsyncConfigValidation:
    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="aggregation"):
            TrainingConfig(aggregation="eventual")

    def test_negative_max_staleness_rejected(self):
        with pytest.raises(ValueError, match="max_staleness"):
            TrainingConfig(max_staleness=-1)

    def test_async_composes_with_pipelining(self):
        # Once mutually exclusive; the execution engine's lookahead store
        # (backdated dispatch marks) made the combination legal.
        config = TrainingConfig(aggregation="async", pipeline_depth=2)
        assert config.pipeline_depth == 2

    def test_async_allows_partial_participation(self):
        # Once required full participation; the engine discards deselected
        # in-flight units through the scheduler instead.
        config = TrainingConfig(aggregation="async", participation_fraction=0.5)
        assert config.participation_fraction == 0.5

    def test_sync_default_unchanged(self):
        config = TrainingConfig()
        assert config.aggregation == "sync"
        assert config.max_staleness == 2


# -- MD-GAN end-to-end -------------------------------------------------------------


class TestMDGANAsync:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_holds_on_every_backend(self, backend, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        config = _config(backend=backend, max_staleness=1)
        with MDGANTrainer(factory, shards, config) as trainer:
            history = trainer.train()
        # Exactly the synchronous number of generator updates, each recorded
        # with its flush's max contribution staleness.
        assert len(history.iterations) == config.iterations
        assert len(history.staleness) == config.iterations
        assert history.max_worker_staleness() <= config.max_staleness
        assert history.worker_staleness  # async runs record per-worker ages
        assert history.config["aggregation"] == "async"
        assert history.overlap["p95_staleness"] <= config.max_staleness
        assert history.overlap["iterations"] == float(config.iterations)

    def test_serial_async_is_deterministic(self, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        runs = []
        for _ in range(2):
            with MDGANTrainer(factory, shards, _config()) as trainer:
                history = trainer.train()
            runs.append(
                (
                    history.generator_loss,
                    history.discriminator_loss,
                    trainer.generator.get_parameters().tobytes(),
                )
            )
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_swaps_still_fire_under_async(self, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        # swap_period = round(m * E / b) = round(40 * 0.5 / 8) = 3 updates.
        config = _config(epochs_per_swap=0.5)
        with MDGANTrainer(factory, shards, config) as trainer:
            history = trainer.train()
        assert history.events_of_kind("swap")

    def test_crashed_workers_are_discarded(self, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        schedule = CrashSchedule(
            {2: [worker_name(0)], 4: [worker_name(1), worker_name(2), worker_name(3)]}
        )
        config = _config(backend="thread", iterations=8)
        with MDGANTrainer(
            factory, shards, config, crash_schedule=schedule
        ) as trainer:
            history = trainer.train()
        assert len(history.events_of_kind("crash")) == 4
        assert history.events_of_kind("all_workers_crashed")
        assert history.max_worker_staleness() <= config.max_staleness
        # Updates recorded before the fleet died, none after.
        assert history.iterations
        assert len(history.iterations) < 8

    def test_straggler_contributions_stay_bounded(self, small_shards_and_factory):
        # A 10x-slowed worker must not stall the fleet (other workers keep
        # flushing) yet its contributions still obey the bound — the seam
        # used here is the one the straggler benchmark injects through.
        shards, factory = small_shards_and_factory
        from repro.runtime.tasks import run_mdgan_worker_task

        class StragglerTrainer(MDGANTrainer):
            def _async_worker_fn(self, worker):
                if worker.index == 0:
                    def slow(task):
                        time.sleep(0.05)
                        return run_mdgan_worker_task(task)

                    return slow
                return run_mdgan_worker_task

        config = _config(backend="thread", max_workers=4, max_staleness=3)
        with StragglerTrainer(factory, shards, config) as trainer:
            history = trainer.train()
        assert len(history.iterations) == config.iterations
        assert history.max_worker_staleness() <= 3


# -- FL-GAN end-to-end -------------------------------------------------------------


class TestFLGANAsync:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_holds_on_every_backend(self, backend, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        # round_length = E * m / b = 0.5 * 40 / 8 = 2.5 -> 2 iterations.
        config = _config(backend=backend, max_staleness=1, epochs_per_swap=0.5)
        with FLGANTrainer(factory, shards, config) as trainer:
            history = trainer.train()
        rounds = history.events_of_kind("federated_round")
        assert rounds  # merges happened
        assert len(history.iterations) == len(rounds)
        assert history.max_worker_staleness() <= config.max_staleness
        assert history.config["aggregation"] == "async"
        assert history.traffic["rounds"] == float(len(rounds))

    def test_fresh_serial_flush_matches_sync_fedavg(self, small_shards_and_factory):
        # max_staleness=0 on the serial backend degenerates to a
        # completion-order barrier with uniform-decay weights: the final
        # server model must equal the synchronous FedAvg run bitwise.
        shards, factory = small_shards_and_factory

        def final_params(aggregation):
            config = _config(
                backend="serial",
                aggregation=aggregation,
                max_staleness=0,
                epochs_per_swap=0.5,
            )
            with FLGANTrainer(factory, shards, config) as trainer:
                trainer.train()
                return (
                    trainer.server_generator.get_parameters(),
                    trainer.server_discriminator.get_parameters(),
                )

        sync_gen, sync_disc = final_params("sync")
        async_gen, async_disc = final_params("async")
        np.testing.assert_array_equal(sync_gen, async_gen)
        np.testing.assert_array_equal(sync_disc, async_disc)

    def test_partial_final_round_is_not_merged(self, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        # round_length 2 with 5 iterations: the trailing odd iteration forms
        # a partial round that must be discarded, exactly like sync.
        config = _config(iterations=5, epochs_per_swap=0.5)
        with FLGANTrainer(factory, shards, config) as trainer:
            history = trainer.train()
        per_worker_merges = {
            worker: len(series) for worker, series in history.worker_staleness.items()
        }
        assert all(count == 2 for count in per_worker_merges.values())
