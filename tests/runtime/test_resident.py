"""Resident-backend protocol tests: installation, deltas, invalidation.

Bitwise parity with the serial reference is covered by ``test_parity.py``;
these tests pin the resident-specific machinery — state installs once and
then only deltas cross the IPC boundary, the state-epoch counter invalidates
stale residents, sync returns authority to the trainer, child-side failures
surface with their traceback, the pool survives (and is exactly reused
across) consecutive ``train()`` calls, installs ride the slot channel, and
slot affinity is reproducible across interpreter runs.  The protocol-error,
lifecycle and serving tests run over both transports: slots that are child
processes on pipes, and worker hosts over tcp.
"""

from __future__ import annotations

import copy
import dataclasses
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.core.flgan import FLGANWorkerState
from repro.core.gan_ops import draw_generator_input
from repro.core.mdgan import MDGANWorkerState
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_toy_gan
from repro.runtime import (
    LOST,
    ChaosTransport,
    GeneratorHandle,
    LocalPipeTransport,
    MembershipPolicy,
    ResidentBackend,
    SlotLossError,
    create_backend,
    mirror_payload,
    serve_slot,
    stable_key_hash,
)


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


def _config(backend: str, **overrides) -> TrainingConfig:
    base = dict(iterations=4, batch_size=8, seed=11, backend=backend, max_workers=2)
    base.update(overrides)
    return TrainingConfig(**base)


def _pooled_config(transport: str, **overrides) -> TrainingConfig:
    """``resident`` over ``transport``."""
    return _config("resident", transport=transport, **overrides)


def _assert_same_worker_state(reference, other) -> None:
    """Every stateful field of every worker is bitwise equal across two trainers."""
    for ref, got in zip(reference.workers, other.workers):
        for name in reference._state_type.STATE_FIELDS:
            a, b = getattr(ref, name), getattr(got, name)
            if name == "rng":
                assert a.bit_generator.state == b.bit_generator.state
            elif name == "sampler":
                assert got.sampler._rng is got.rng
                cursor_a, cursor_b = a.cursor_state(), b.cursor_state()
                assert np.array_equal(cursor_a.pop("order"), cursor_b.pop("order"))
                assert cursor_a == cursor_b
            elif name.endswith("_opt"):
                assert a.iterations == b.iterations
                assert a._shapes == b._shapes
                assert np.array_equal(a._m, b._m) and np.array_equal(a._v, b._v)
            else:
                assert np.array_equal(a.get_parameters(), b.get_parameters())


class TestInstallOnceThenDeltas:
    def test_state_ships_once_then_only_deltas(self, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        trainer = MDGANTrainer(factory, shards, _config("resident"))
        try:
            trainer.train_iteration(1)
            backend = trainer._backend
            assert isinstance(backend, ResidentBackend)
            assert all(backend.installed(w.index) for w in trainer.workers)
            install_bytes = backend.ipc_bytes_sent
            trainer.train_iteration(2)
            delta_bytes = backend.ipc_bytes_sent - install_bytes
            # Iteration 1 shipped full state (model + optimizer + shard);
            # iteration 2 shipped only the generated batches.
            assert delta_bytes < install_bytes / 2
        finally:
            trainer.sync_worker_state()
            trainer.close_backend()

    def test_flgan_steps_ship_no_state_at_all(self, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        trainer = FLGANTrainer(factory, shards, _config("resident", iterations=6))
        try:
            trainer.train()
            # The pool outlives train() (persistent serving layer): the
            # residents stay installed and warm for a later call, while the
            # trainer's objects mirror the final state.
            backend = trainer._backend
            assert isinstance(backend, ResidentBackend)
            assert all(backend.installed(w.index) for w in trainer.workers)
            assert all(np.isfinite(trainer.history.generator_loss))
        finally:
            trainer.close()
        assert trainer._backend is None


class TestSyncAndInvalidation:
    def test_sync_returns_authoritative_state_and_invalidates(
        self, small_shards_and_factory
    ):
        shards, factory = small_shards_and_factory
        serial = MDGANTrainer(factory, shards, _config("serial"))
        resident = MDGANTrainer(factory, shards, _config("resident"))
        for iteration in (1, 2):
            serial.train_iteration(iteration)
            resident.train_iteration(iteration)
        backend = resident._backend
        resident.sync_worker_state()
        try:
            for s_worker, r_worker in zip(serial.workers, resident.workers):
                assert np.array_equal(
                    s_worker.discriminator.get_parameters(),
                    r_worker.discriminator.get_parameters(),
                )
                assert (
                    s_worker.rng.bit_generator.state
                    == r_worker.rng.bit_generator.state
                )
                assert r_worker.sampler._rng is r_worker.rng
                # Authority returned to the trainer: resident copy dropped.
                assert not backend.installed(r_worker.index)
        finally:
            resident.close_backend()
            serial.close_backend()

    @pytest.mark.parametrize(
        "trainer_cls, worker_cls, mirror_keys",
        [
            (
                MDGANTrainer,
                MDGANWorkerState,
                ["discriminator", "disc_opt", "rng_state", "sampler_cursor"],
            ),
            (
                FLGANTrainer,
                FLGANWorkerState,
                [
                    "generator",
                    "discriminator",
                    "gen_opt",
                    "disc_opt",
                    "rng_state",
                    "sampler_cursor",
                ],
            ),
        ],
    )
    def test_state_tuple_is_the_worker_state_and_orders_the_mirror(
        self, trainer_cls, worker_cls, mirror_keys, small_shards_and_factory
    ):
        # One tuple per algorithm says what a worker's state is: it must
        # cover the worker dataclass (all but the key and the immutable
        # shard), and the mirror payload derived from it keeps the key order
        # the wire has always carried (pull_mirror frames stay byte-identical).
        shards, factory = small_shards_and_factory
        trainer = trainer_cls(factory, shards, _config("serial"))
        worker_fields = [f.name for f in dataclasses.fields(worker_cls)]
        expected = [name for name in worker_fields if name not in ("index", "dataset")]
        assert list(trainer._state_type.STATE_FIELDS) == expected
        state = trainer._resident_state(trainer.workers[0])
        assert list(mirror_payload(state)) == mirror_keys

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    @pytest.mark.parametrize("trainer_cls", (MDGANTrainer, FLGANTrainer))
    def test_reclaim_restores_full_state_and_training_continues(
        self, trainer_cls, transport, small_shards_and_factory
    ):
        # Reclaim is "mirror, then drop": after k resident steps the
        # trainer's own objects must equal a serial trainer's bitwise —
        # parameters, optimizer moments, RNG state and the *full* sampler
        # cursor (shuffle order included) — and training on from there
        # (a fresh install from those objects) must stay bitwise equal.
        shards, factory = small_shards_and_factory

        def step(trainer, iteration):
            if trainer_cls is MDGANTrainer:
                trainer.train_iteration(iteration)
            else:
                trainer._sync_iteration(iteration)

        serial = trainer_cls(factory, shards, _config("serial", iterations=8))
        resident = trainer_cls(factory, shards, _pooled_config(transport, iterations=8))
        try:
            for iteration in (1, 2, 3):
                step(serial, iteration)
                step(resident, iteration)
            backend = resident._backend
            resident.sync_worker_state()
            assert not any(backend.installed(w.index) for w in resident.workers)
            _assert_same_worker_state(serial, resident)
            installs = backend.install_count
            for iteration in (4, 5):
                step(serial, iteration)
                step(resident, iteration)
            assert backend.install_count == installs + len(resident.workers)
            resident.sync_worker_state()
            _assert_same_worker_state(serial, resident)
        finally:
            resident.close_backend()

    def test_reclaim_bytes_equal_mirror_bytes_whatever_the_shard_size(self):
        # pull_state used to ship every worker's immutable shard back to the
        # server; it now replies with the mirror payload, so one reclaim
        # receives what one mirror receives and the cost does not follow the
        # shard's bytes (only the cursor's shuffle order: 8 bytes a sample).
        def reclaim_bytes(n_train):
            train, _ = make_gaussian_ring(n_train=n_train, n_test=8, image_size=8, seed=7)
            factory = build_toy_gan(
                image_shape=train.spec.shape,
                num_classes=train.num_classes,
                latent_dim=8,
                hidden=16,
            )
            shards = partition_iid(train, 4, np.random.default_rng(3))
            with MDGANTrainer(factory, shards, _config("resident")) as trainer:
                trainer.train_iteration(1)
                received = trainer._backend.op_bytes_received
                trainer.sync_worker_state(reclaim=False)
                trainer.sync_worker_state()
                shard_bytes = sum(s.images.nbytes + s.labels.nbytes for s in shards)
                return received["pull_mirror"], received["pull_state"], shard_bytes

        mirror, reclaim, shard_bytes = reclaim_bytes(160)
        assert abs(reclaim - mirror) <= 0.01 * mirror
        big_mirror, big_reclaim, big_shard_bytes = reclaim_bytes(640)
        assert abs(big_reclaim - big_mirror) <= 0.01 * big_mirror
        assert big_reclaim - reclaim < 0.05 * (big_shard_bytes - shard_bytes)

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_replace_dataset_after_sync_matches_serial(
        self, transport, small_shards_and_factory
    ):
        # The invalidation protocol end-to-end: train, reclaim one worker's
        # state, mutate it outside the pool (replace_dataset), train on.
        # The trajectory must stay bitwise identical to a serial run that
        # performs the same mutation at the same point — over either
        # transport (the state-epoch counter rides the wire protocol, so tcp
        # must honour it exactly like the pipes do).
        shards, factory = small_shards_and_factory
        replacement, _ = make_gaussian_ring(n_train=48, n_test=8, image_size=8, seed=23)

        def run(config):
            trainer = MDGANTrainer(factory, shards, config)
            for iteration in (1, 2):
                trainer.train_iteration(iteration)
            trainer.sync_worker_state([trainer.workers[0]])
            trainer.workers[0].sampler.replace_dataset(replacement)
            for iteration in (3, 4):
                trainer.train_iteration(iteration)
            trainer.sync_worker_state()
            trainer.close_backend()
            return trainer

        serial = run(_config("serial"))
        resident = run(_pooled_config(transport))
        for s_worker, r_worker in zip(serial.workers, resident.workers):
            assert np.array_equal(
                s_worker.discriminator.get_parameters(),
                r_worker.discriminator.get_parameters(),
            )
            assert s_worker.rng.bit_generator.state == r_worker.rng.bit_generator.state
        assert np.array_equal(
            serial.generator.get_parameters(), resident.generator.get_parameters()
        )

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_stale_epoch_is_rejected_by_the_pool(
        self, transport, small_shards_and_factory
    ):
        shards, factory = small_shards_and_factory
        trainer = MDGANTrainer(factory, shards, _pooled_config(transport))
        try:
            trainer.train_iteration(1)
            backend = trainer._backend
            # Forge the bookkeeping: pretend epoch 1 is installed while the
            # pool still holds epoch 0.  The pool must refuse to step it.
            key = trainer.workers[0].index
            backend._epochs[key] += 1
            backend._installed[key] = backend._epochs[key]
            with pytest.raises(RuntimeError, match="stale resident state"):
                trainer.train_iteration(2)
        finally:
            trainer.close_backend()

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_pool_failure_poisons_the_backend(self, transport, small_shards_and_factory):
        # After any failed request some residents may hold steps the trainer
        # never merged and other slots may have unread replies: the backend
        # must fail stop (pool torn down, later calls refused) instead of
        # desyncing pipes or silently resuming from stale state.
        shards, factory = small_shards_and_factory
        trainer = MDGANTrainer(factory, shards, _pooled_config(transport))
        try:
            trainer.train_iteration(1)
            backend = trainer._backend
            key = trainer.workers[0].index
            backend._epochs[key] += 1
            backend._installed[key] = backend._epochs[key]
            with pytest.raises(RuntimeError, match="stale resident state"):
                trainer.train_iteration(2)
            # The pool is gone and nothing counts as installed any more...
            assert backend._transport is None
            assert not any(backend.installed(w.index) for w in trainer.workers)
            # ...sync_worker_state degrades to a no-op (never pulls junk)...
            trainer.sync_worker_state()
            # ...and further protocol use is refused with the original cause.
            with pytest.raises(RuntimeError, match="previously failed"):
                trainer.train_iteration(3)
        finally:
            trainer.close_backend()


@pytest.mark.parametrize("transport", ("pipe", "tcp"))
class TestProtocolErrors:
    def test_pull_params_requires_installed_state(self, transport):
        backend = create_backend("resident", max_workers=1, transport=transport)
        with pytest.raises(ValueError, match="pull_params requires"):
            backend.pull_params([0])
        backend.close()

    def test_unknown_program_propagates_child_traceback(self, transport):
        backend = create_backend("resident", max_workers=1, transport=transport)
        try:
            with pytest.raises(RuntimeError, match="Unknown resident program"):
                backend.start_steps("no-such-program", [(0, lambda: object(), None)]).result()
        finally:
            backend.close()

    def test_missing_install_is_an_error(self, transport):
        # A supplier returning None means "no install payload": stepping a
        # never-installed worker must fail loudly, not train on nothing.
        backend = create_backend("resident", max_workers=1, transport=transport)
        try:
            with pytest.raises(RuntimeError, match="no resident state"):
                backend.start_steps("mdgan", [(0, lambda: None, None)]).result()
        finally:
            backend.close()


class TestInflightLedger:
    """Backend-level pins of the one in-flight ledger (guards, drain, close)."""

    def _generation(self, small_shards_and_factory, batches):
        _, factory = small_shards_and_factory
        generator = factory.make_generator(np.random.default_rng(0))
        _, _, g_input = draw_generator_input(generator, factory, 4, np.random.default_rng(1))
        return generator, [g_input] * batches

    def test_drain_discards_every_view_and_handles_stay_readable(
        self, small_shards_and_factory
    ):
        shards, factory = small_shards_and_factory
        trainer = MDGANTrainer(factory, shards, _config("resident"))
        generator, g_inputs = self._generation(small_shards_and_factory, batches=2)
        try:
            trainer.train_iteration(1)
            backend = trainer._backend
            generated = backend.start_generation(
                GeneratorHandle(), lambda: generator, generator.get_parameters, g_inputs
            )
            again = backend.start_generation(
                GeneratorHandle(), lambda: generator, generator.get_parameters, g_inputs
            )
            assert len(backend._ledger.entries()) == 4
            backend.drain_inflight()
            assert backend._ledger.entries() == []
            assert set(backend.pull_params([0])) == {0}
            # Drained replies were delivered to their handles, not lost.
            assert [images.shape[0] for images, _ in generated.result()] == [4, 4]
            assert [images.shape[0] for images, _ in again.result()] == [4, 4]
        finally:
            trainer.close_backend()

    def test_elastic_drain_never_raises_for_lost_generate_frames(
        self, small_shards_and_factory
    ):
        # Satellite regression at the backend level: a generate handle cannot
        # absorb a lost frame (its own result() raises), but draining it is
        # discard-only and must stay silent inside a loss-recovery path.
        generator, g_inputs = self._generation(small_shards_and_factory, batches=2)
        transport = ChaosTransport(LocalPipeTransport(serve_slot))
        backend = ResidentBackend(
            max_workers=2,
            transport=transport,
            membership_policy=MembershipPolicy(on_slot_loss="degrade"),
        )
        try:
            generated = backend.start_generation(
                GeneratorHandle(), lambda: generator, generator.get_parameters, g_inputs
            )
            transport.kill_slot(1)
            backend.drain_inflight()
            assert backend.alive_slot_count() == 1
            assert backend.membership.counters["slot_loss"] == 1
            with pytest.raises(SlotLossError) as excinfo:
                generated.result()
            assert (excinfo.value.slot_index, excinfo.value.op) == (1, "generate")
            # Later generations avoid the quarantined slot altogether.
            ahead = backend.start_generation(
                GeneratorHandle(), lambda: generator, generator.get_parameters, g_inputs
            )
            assert {entry.slot for entry in backend._ledger.entries()} == {0}
            assert all(result is not LOST for result in ahead.result())
        finally:
            backend.close()

    def test_close_marks_every_unanswered_owner_dead(self, small_shards_and_factory):
        generator, g_inputs = self._generation(small_shards_and_factory, batches=1)
        backend = ResidentBackend(max_workers=1)
        generated = backend.start_generation(
            GeneratorHandle(), lambda: generator, generator.get_parameters, g_inputs
        )
        backend.close()
        assert backend._ledger.entries() == []
        with pytest.raises(RuntimeError, match="closed or poisoned"):
            generated.result()


@pytest.mark.parametrize("transport", ("pipe", "tcp"))
class TestLifecycle:
    def test_pool_restart_reinstalls_state(self, transport, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        trainer = MDGANTrainer(factory, shards, _pooled_config(transport))
        try:
            trainer.train_iteration(1)
            backend = trainer._backend
            trainer.sync_worker_state()
            backend.close()
            # The pool is gone; nothing is installed, training must resume
            # by re-installing from the (authoritative) trainer state.
            assert not any(backend.installed(w.index) for w in trainer.workers)
            trainer.train_iteration(2)
            assert all(backend.installed(w.index) for w in trainer.workers)
        finally:
            trainer.sync_worker_state()
            trainer.close_backend()


@pytest.mark.parametrize("transport", ("pipe", "tcp"))
class TestPersistentServing:
    """The pool is a serving layer owned by the trainer, warm across train()s."""

    def test_second_train_reuses_warm_slots(self, transport, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        with MDGANTrainer(factory, shards, _pooled_config(transport)) as trainer:
            trainer.train()
            backend = trainer._backend
            assert isinstance(backend, ResidentBackend)
            installs_cold = backend.install_count
            assert installs_cold >= len(trainer.workers)
            bytes_after_cold = backend.ipc_bytes_sent
            trainer.train()
            # Same pool, same residents: re-entry ships zero install
            # payloads, only the per-iteration deltas.
            assert trainer._backend is backend
            assert backend.install_count == installs_cold
            assert backend.ipc_bytes_sent - bytes_after_cold < bytes_after_cold
        assert trainer._backend is None

    def test_sequential_trains_match_serial(self, transport, small_shards_and_factory):
        # Warm reuse is not just cheap, it is exact: two back-to-back
        # train() calls on one trainer stay bitwise identical to the serial
        # reference doing the same thing.
        shards, factory = small_shards_and_factory

        def run(config):
            with MDGANTrainer(factory, shards, config) as trainer:
                trainer.train()
                trainer.train()
                return trainer

        serial = run(_config("serial"))
        resident = run(_pooled_config(transport))
        assert np.array_equal(
            serial.generator.get_parameters(), resident.generator.get_parameters()
        )
        for s_worker, r_worker in zip(serial.workers, resident.workers):
            assert np.array_equal(
                s_worker.discriminator.get_parameters(),
                r_worker.discriminator.get_parameters(),
            )
            assert s_worker.rng.bit_generator.state == r_worker.rng.bit_generator.state

    def test_slot_alone_owns_the_cursors_until_a_mirror_pull(
        self, transport, small_shards_and_factory
    ):
        # An installed worker's RNG and sampler cursor live in its slot only:
        # steps leave the trainer's objects at their install-time values, and
        # a mirror pull is what brings the slot's (serial's) values back.
        shards, factory = small_shards_and_factory

        def cursors(trainer):
            return [
                (w.rng.bit_generator.state, w.sampler.cursor_state()) for w in trainer.workers
            ]

        def assert_same(expected, got):
            for (rng_a, cursor_a), (rng_b, cursor_b) in zip(expected, got):
                assert rng_a == rng_b
                cursor_a, cursor_b = dict(cursor_a), dict(cursor_b)
                assert np.array_equal(cursor_a.pop("order"), cursor_b.pop("order"))
                assert cursor_a == cursor_b

        serial = MDGANTrainer(factory, shards, _config("serial"))
        with MDGANTrainer(factory, shards, _pooled_config(transport)) as resident:
            before = copy.deepcopy(cursors(resident))
            for iteration in (1, 2, 3):
                serial.train_iteration(iteration)
                resident.train_iteration(iteration)
            assert_same(before, cursors(resident))
            resident.sync_worker_state(reclaim=False)
            assert_same(cursors(serial), cursors(resident))
            _assert_same_worker_state(serial, resident)
        serial.close()

    def test_train_mirrors_state_without_reclaiming(self, transport, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        serial = MDGANTrainer(factory, shards, _config("serial"))
        serial.train()
        with MDGANTrainer(factory, shards, _pooled_config(transport)) as resident:
            resident.train()
            backend = resident._backend
            # The trainer's objects hold the final models (mirror) while the
            # pool remains authoritative and installed (no epoch bump).
            for s_worker, r_worker in zip(serial.workers, resident.workers):
                assert np.array_equal(
                    s_worker.discriminator.get_parameters(),
                    r_worker.discriminator.get_parameters(),
                )
                assert r_worker.sampler._rng is r_worker.rng
            assert all(backend.installed(w.index) for w in resident.workers)

    def test_mutation_between_trains_goes_through_reclaim(
        self, transport, small_shards_and_factory
    ):
        # The documented mutation contract survives the persistent pool:
        # reclaim authority (sync), mutate, train again — bitwise equal to a
        # serial trainer doing the same.
        shards, factory = small_shards_and_factory
        replacement, _ = make_gaussian_ring(n_train=48, n_test=8, image_size=8, seed=29)

        def run(config):
            with MDGANTrainer(factory, shards, config) as trainer:
                trainer.train()
                trainer.sync_worker_state([trainer.workers[1]])
                trainer.workers[1].sampler.replace_dataset(replacement)
                trainer.train()
                return trainer

        serial = run(_config("serial"))
        resident = run(_pooled_config(transport))
        assert np.array_equal(
            serial.generator.get_parameters(), resident.generator.get_parameters()
        )
        for s_worker, r_worker in zip(serial.workers, resident.workers):
            assert np.array_equal(
                s_worker.discriminator.get_parameters(),
                r_worker.discriminator.get_parameters(),
            )

    def test_close_backend_between_trains_matches_serial(
        self, transport, small_shards_and_factory
    ):
        # Regression: the end-of-train mirror must leave the trainer's
        # objects *complete* (including the sampler's mid-epoch shuffle
        # order/cursor), so dropping the pool and re-installing from them is
        # still bitwise-exact — not just warm reuse.
        shards, factory = small_shards_and_factory

        def run(config):
            with MDGANTrainer(factory, shards, config) as trainer:
                trainer.train()
                trainer.close_backend()  # cold restart: next train re-installs
                trainer.train()
                return trainer

        serial = run(_config("serial"))
        resident = run(_pooled_config(transport))
        assert np.array_equal(
            serial.generator.get_parameters(), resident.generator.get_parameters()
        )
        for s_worker, r_worker in zip(serial.workers, resident.workers):
            assert np.array_equal(
                s_worker.discriminator.get_parameters(),
                r_worker.discriminator.get_parameters(),
            )
            assert s_worker.sampler.samples_drawn == r_worker.sampler.samples_drawn
            assert s_worker.rng.bit_generator.state == r_worker.rng.bit_generator.state

    def test_flgan_second_train_reuses_warm_slots(self, transport, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        with FLGANTrainer(factory, shards, _pooled_config(transport)) as trainer:
            trainer.train()
            backend = trainer._backend
            installs_cold = backend.install_count
            trainer.train()
            assert trainer._backend is backend
            assert backend.install_count == installs_cold

    def test_mirror_payload_carries_no_dataset(self, transport, small_shards_and_factory):
        # The end-of-train refresh must not re-ship the shard: the mirror op
        # returns exactly the model/optimizer/cursor view, nothing bulkier.
        shards, factory = small_shards_and_factory
        with MDGANTrainer(factory, shards, _pooled_config(transport)) as trainer:
            trainer.train_iteration(1)
            backend = trainer._backend
            mirrors = backend.pull_mirror([w.index for w in trainer.workers])
            assert set(mirrors) == {w.index for w in trainer.workers}
            for payload in mirrors.values():
                assert set(payload) == {
                    "discriminator",
                    "disc_opt",
                    "rng_state",
                    "sampler_cursor",
                }
            # Mirroring kept the pool warm and authoritative.
            assert all(backend.installed(w.index) for w in trainer.workers)

    def test_close_is_idempotent_and_reclaims(self, transport, small_shards_and_factory):
        shards, factory = small_shards_and_factory
        trainer = MDGANTrainer(factory, shards, _pooled_config(transport))
        trainer.train_iteration(1)
        trainer.close()
        assert trainer._backend is None
        trainer.close()  # second close is a no-op
        # The trainer stays usable: a later call rebuilds the pool lazily.
        trainer.train_iteration(2)
        trainer.close()
        assert trainer._backend is None


class TestCleanupErrorMasking:
    def test_original_exception_survives_poisoned_pool_cleanup(
        self, small_shards_and_factory
    ):
        # Regression: train()'s cleanup used to call sync_worker_state()
        # unguarded, and on a pool whose broken flag was raised mid-failure
        # (install bookkeeping still naming residents) the secondary
        # RuntimeError from _check_usable shadowed the original training
        # exception.  Cleanup must be best-effort: original error surfaces,
        # backend still gets closed.
        shards, factory = small_shards_and_factory

        class _PoisonThenExplode:
            """Evaluator stub that half-poisons the pool, then raises."""

            def __init__(self, trainer):
                self.trainer = trainer

            def evaluate(self, sample_fn, iteration):
                self.trainer._backend._broken_reason = "injected mid-run failure"
                raise ValueError("original training failure")

        trainer = MDGANTrainer(factory, shards, _config("resident", eval_every=2))
        trainer.evaluator = _PoisonThenExplode(trainer)
        with pytest.raises(ValueError, match="original training failure"):
            trainer.train()
        assert trainer._backend is None


def _psm_segments() -> set:
    """Names of the POSIX shared-memory segments currently on this machine."""
    root = Path("/dev/shm")
    return {p.name for p in root.glob("psm_*")} if root.is_dir() else set()


class TestInstallsRideTheSlotChannel:
    """An install is the payload object itself, inside the frame that needs it."""

    def test_cold_pipe_pool_installs_inside_run_frames(self):
        # Shards of a few hundred KiB each: an install that bypassed its
        # frame would be missing from the meter or show up in /dev/shm.
        train, _ = make_gaussian_ring(n_train=1200, n_test=40, image_size=16, seed=7)
        factory = build_toy_gan(
            image_shape=train.spec.shape,
            num_classes=train.num_classes,
            latent_dim=8,
            hidden=16,
        )
        shards = partition_iid(train, 4, np.random.default_rng(3))
        shard_bytes = sum(shard.images.nbytes for shard in shards)
        before = _psm_segments()
        config = _config("resident", iterations=2, transport="pipe")
        with MDGANTrainer(factory, shards, config) as trainer:
            trainer.train()
            backend = trainer._backend
            assert _psm_segments() == before
            assert backend.op_bytes_sent["run"] >= shard_bytes
            assert backend.install_count == len(shards)
            assert backend.shm_bytes_sent == 0


class TestStableSlotAffinity:
    def test_integer_keys_keep_positional_affinity(self):
        assert stable_key_hash(5) == 5
        assert stable_key_hash(np.int64(7)) == 7

    def test_non_integer_keys_are_seed_independent(self):
        # Pinned against the CRC of the key's repr: any interpreter run (any
        # PYTHONHASHSEED) must produce exactly these values, which is what
        # makes worker->slot affinity and the IPC meters reproducible.
        assert stable_key_hash("worker-a") == zlib.crc32(b"'worker-a'")
        assert stable_key_hash(("generator", 3)) == zlib.crc32(
            repr(("generator", 3)).encode("utf-8")
        )

    def test_slot_assignment_uses_stable_hash(self, small_shards_and_factory):
        backend = ResidentBackend(max_workers=2)
        try:
            assert backend._slot_for(3) == 1
            assert (
                backend._slot_for("__server_generator__")
                == zlib.crc32(b"'__server_generator__'") % 2
            )
        finally:
            backend.close()
