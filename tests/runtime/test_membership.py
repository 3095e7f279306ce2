"""Elastic membership chaos suite: join/leave/reconnect mid-run.

Fail-stop is the default and stays bitwise identical to the pre-membership
runtime (pinned here across all four backends).  Under an elastic
``on_slot_loss`` policy the pool must instead *survive* slot churn:

* a killed slot is quarantined (not poisoned) — its workers' step results
  come back as :data:`LOST`, the pool keeps serving survivors, and the
  trainer-side policy evicts (``degrade``) or blocks-and-reassigns
  (``wait``) the lost workers at the next aggregation boundary;
* evicted workers' shards are redistributed across survivors, and FedAvg
  weights follow the *live* shard sizes;
* a late ``worker_host --connect`` joiner is admitted through the versioned
  re-handshake, revives evicted workers from their last merged mirror after
  exactly one rebalance boundary, and contributes from the next iteration.

Faults are injected deterministically through the
:class:`~repro.runtime.transport.chaos.ChaosTransport` harness (scripted
schedules and scripted ``kill_slot`` calls — no timing races, fixed seeds).
"""

from __future__ import annotations

import multiprocessing
import select
import time

import numpy as np
import pytest

from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.core.engine import ExecutionEngine
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_toy_gan
from repro.runtime import (
    LOST,
    ChaosAction,
    ChaosSchedule,
    ChaosTransport,
    MembershipPolicy,
    PoolMembership,
    ResidentBackend,
    SlotLossError,
    TransportError,
    stable_key_hash,
)
from repro.runtime.resident import ResidentProgram, register_program, serve_slot
from repro.runtime.transport import LocalPipeTransport, TcpTransport
from repro.runtime.worker_host import run_worker
from repro.simulation import CrashSchedule, worker_name

pytestmark = pytest.mark.chaos


# A trivial resident program the backend-level tests drive directly.
# Registered at import time, before any pool forks, so slot processes
# (pipe children and loopback tcp workers alike) inherit it.
def _echo_step(state, payload):
    if isinstance(payload, dict) and payload.get("sleep"):
        time.sleep(payload["sleep"])
    state["count"] = state.get("count", 0) + 1
    return (state["count"], payload)


register_program(
    ResidentProgram(
        name="member-echo",
        step=_echo_step,
        pull_params=lambda state: dict(state),
        push_params=lambda state, params: state.update(params),
    )
)


def _fresh_state():
    return {"count": 0}


def _degrade(**overrides) -> MembershipPolicy:
    base = dict(on_slot_loss="degrade", min_workers=1, rejoin_backoff=0.1, rejoin_timeout=5.0)
    base.update(overrides)
    return MembershipPolicy(**base)


def _elastic_pipe_backend(schedule=None, read_timeout=None, policy=None):
    """A 2-slot elastic pipe pool behind the chaos harness."""
    transport = ChaosTransport(
        LocalPipeTransport(serve_slot, read_timeout=read_timeout), schedule=schedule
    )
    backend = ResidentBackend(
        max_workers=2, transport=transport, membership_policy=policy or _degrade()
    )
    return backend, transport


# Founding hash placement on a 2-slot pool: small integer keys alternate
# slots (0 -> slot 0, 1 -> slot 1, 2 -> slot 0, ...), pinned here so every
# chaos script below can name its victim deterministically.
def test_small_keys_alternate_slots():
    assert [stable_key_hash(k) % 2 for k in range(4)] == [0, 1, 0, 1]


# -- membership primitives ---------------------------------------------------------


class TestMembershipPrimitives:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="on_slot_loss"):
            MembershipPolicy(on_slot_loss="explode")
        with pytest.raises(ValueError, match="min_workers"):
            MembershipPolicy(on_slot_loss="degrade", min_workers=0)
        with pytest.raises(ValueError, match="rejoin_backoff"):
            MembershipPolicy(on_slot_loss="wait", rejoin_backoff=0.0)
        assert not MembershipPolicy().elastic
        assert MembershipPolicy(on_slot_loss="degrade").elastic
        assert MembershipPolicy(on_slot_loss="wait").elastic

    def test_slot_loss_error_is_a_transport_error(self):
        exc = SlotLossError("slot 1 died", slot_index=1, op="run", lost_keys=[3, 0])
        assert isinstance(exc, TransportError)
        assert exc.slot_index == 1
        assert exc.op == "run"
        assert exc.lost_keys == [3, 0]
        assert SlotLossError("bare").lost_keys == []

    def test_record_counters_and_pending_loss(self):
        membership = PoolMembership(policy=_degrade())
        membership.record("slot_loss", slot=1, detail="killed")
        membership.record("evict", worker=3)
        membership.record("evict", worker=1)
        assert membership.counters_snapshot() == {"slot_loss": 1, "evict": 2}
        # The snapshot is a copy, not a live view.
        membership.counters_snapshot()["evict"] = 99
        assert membership.counters["evict"] == 2
        membership.pending_loss.update({3, 1})
        assert membership.take_pending_loss() == [1, 3]  # sorted, then cleared
        assert membership.take_pending_loss() == []


class TestChaosHarness:
    def test_action_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ChaosAction(slot=0, frame_index=0, kind="meteor")

    def test_random_schedule_is_seed_deterministic(self):
        kwargs = dict(num_slots=2, num_frames=32, drop=0.2, delay=0.1, disconnect=0.1)
        first = ChaosSchedule.random(seed=7, **kwargs)
        again = ChaosSchedule.random(seed=7, **kwargs)
        assert len(first) > 0
        assert first._by_key.keys() == again._by_key.keys()
        assert [a.kind for a in first._by_key.values()] == [
            a.kind for a in again._by_key.values()
        ]
        # Actions fire exactly once.
        key = next(iter(first._by_key))
        assert first.take(*key) is not None
        assert first.take(*key) is None

    def test_schedule_free_wrapper_is_transparent(self):
        # No schedule, fail-stop pool: the wrapper must be byte-for-byte
        # invisible to the protocol.
        transport = ChaosTransport(LocalPipeTransport(serve_slot))
        backend = ResidentBackend(max_workers=2, transport=transport)
        try:
            out = backend.run_steps(
                "member-echo", [(0, _fresh_state, "a"), (1, _fresh_state, "b")]
            )
            assert out == [(1, "a"), (1, "b")]
            assert backend.pull_params([0])[0]["count"] == 1
        finally:
            backend.close()


# -- backend-level quarantine (pipe) -----------------------------------------------


class TestElasticBackendPipe:
    def test_killed_slot_quarantines_and_pool_survives(self):
        backend, transport = _elastic_pipe_backend()
        try:
            out = backend.run_steps(
                "member-echo", [(0, _fresh_state, "a"), (1, _fresh_state, "b")]
            )
            assert out == [(1, "a"), (1, "b")]
            transport.kill_slot(0)
            out = backend.run_steps(
                "member-echo", [(0, _fresh_state, "a2"), (1, _fresh_state, "b2")]
            )
            # Key 0 lived on the dead slot: its result is LOST, the
            # survivor's step still completed.
            assert out[0] is LOST
            assert out[1] == (2, "b2")
            membership = backend.membership
            assert backend.alive_slot_count() == 1
            assert membership.counters["slot_loss"] == 1
            assert membership.take_pending_loss() == [0]
            # The lost key re-dispatches onto the surviving slot: its install
            # was popped at quarantine time, so the (fresh) trainer-side
            # state is re-shipped and the step runs there.
            out = backend.run_steps("member-echo", [(0, _fresh_state, "a3")])
            assert out == [(1, "a3")]
            assert backend._slot_for(0) == backend._slot_for(1)
        finally:
            backend.close()

    def test_last_surviving_slot_fails_stop(self):
        # Elasticity never yields an empty pool: a fault on the only alive
        # slot is handled exactly like fail-stop (poison, not quarantine).
        backend, transport = _elastic_pipe_backend()
        try:
            backend.run_steps(
                "member-echo", [(0, _fresh_state, "a"), (1, _fresh_state, "b")]
            )
            transport.kill_slot(0)
            out = backend.run_steps("member-echo", [(0, _fresh_state, "a2")])
            assert out == [LOST]  # slot 0 quarantined; slot 1 is the last alive
            transport.kill_slot(1)
            with pytest.raises(TransportError) as excinfo:
                backend.run_steps("member-echo", [(1, _fresh_state, "b3")])
            assert not isinstance(excinfo.value, SlotLossError)
            assert backend._transport is None  # fail-stop: pool torn down
            with pytest.raises(RuntimeError, match="previously failed"):
                backend.run_steps("member-echo", [(1, _fresh_state, "b4")])
        finally:
            backend.close()

    def test_stale_fault_on_quarantined_slot_is_ignored(self):
        backend, transport = _elastic_pipe_backend()
        try:
            backend.run_steps(
                "member-echo", [(0, _fresh_state, "a"), (1, _fresh_state, "b")]
            )
            lost = backend.quarantine_slot(0, reason="scripted")
            assert lost == [0]
            # Quarantining twice is idempotent ...
            assert backend.quarantine_slot(0, reason="again") == []
            # ... and a late-arriving wire fault for the same slot is stale
            # news: no poisoning, no second loss.
            assert backend._wire_fault(0, "run", "late echo", "late echo") is None
            assert backend.membership.counters["slot_loss"] == 1
            assert backend._broken_reason is None
        finally:
            backend.close()

    def test_exploding_channel_close_never_masks_the_loss(self):
        # Satellite regression: quarantine closes the dead slot's channel
        # best-effort; a TransportError/OSError raised by that close must
        # not replace the loss being handled — and a later pool close() must
        # also survive the unusable channel.
        backend, transport = _elastic_pipe_backend()
        try:
            backend.run_steps(
                "member-echo", [(0, _fresh_state, "a"), (1, _fresh_state, "b")]
            )

            def exploding_close():
                raise OSError("close exploded")

            transport.channel(0).close = exploding_close
            lost = backend.quarantine_slot(0, reason="scripted kill")
            assert lost == [0]  # the real outcome survived the broken close
            assert backend.membership.counters["slot_loss"] == 1
            out = backend.run_steps("member-echo", [(1, _fresh_state, "b2")])
            assert out == [(2, "b2")]
        finally:
            backend.close()  # must not raise through the exploding channel

    def test_scheduled_disconnect_degrades_the_pool(self):
        # A scripted mid-run disconnect (seeded chaos, not an imperative
        # kill) quarantines its slot; the run completes on the survivor.
        schedule = ChaosSchedule(
            (ChaosAction(slot=1, frame_index=3, kind="disconnect"),)
        )
        backend, transport = _elastic_pipe_backend(schedule=schedule)
        try:
            results = []
            for step in range(6):
                results.append(
                    backend.run_steps(
                        "member-echo",
                        [(0, _fresh_state, step), (1, _fresh_state, step)],
                    )
                )
            assert len(schedule) == 0  # the scripted fault fired
            assert backend.membership.counters["slot_loss"] == 1
            assert backend.alive_slot_count() == 1
            lost_rounds = [r for r in results if any(v is LOST for v in r)]
            assert len(lost_rounds) == 1
            # Both keys kept stepping on the survivor after the loss.
            assert all(v is not LOST for v in results[-1])
        finally:
            backend.close()

    def test_wait_policy_heals_via_replacement_slot(self):
        # Backend half of the "wait" policy: the pipe transport can respawn
        # capacity, and the lost key's next dispatch reinstalls there.
        policy = MembershipPolicy(
            on_slot_loss="wait", rejoin_backoff=0.05, rejoin_timeout=5.0
        )
        backend, transport = _elastic_pipe_backend(policy=policy)
        try:
            backend.run_steps(
                "member-echo", [(0, _fresh_state, "a"), (1, _fresh_state, "b")]
            )
            transport.kill_slot(0)
            out = backend.run_steps(
                "member-echo", [(0, _fresh_state, "x"), (1, _fresh_state, "y")]
            )
            assert out[0] is LOST
            replacement = backend.open_replacement_slot()
            assert replacement == 2  # appended; existing indices never renumber
            assert backend.alive_slot_count() == 2
            counters = backend.membership_counters()
            assert counters["join"] == 1
            assert counters["reconnect_attempt"] == 1
            # The orphaned key was repointed at the new slot and reinstalls.
            assert backend._slot_for(0) == replacement
            out = backend.run_steps("member-echo", [(0, _fresh_state, "x2")])
            assert out == [(1, "x2")]
        finally:
            backend.close()


# -- trainer-level chaos -----------------------------------------------------------


@pytest.fixture(scope="module")
def ring_setup3():
    """A tiny ring dataset split over 3 workers, plus a matched toy GAN."""
    train, _ = make_gaussian_ring(n_train=160, n_test=40, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        latent_dim=8,
        hidden=16,
    )
    shards = partition_iid(train, 3, np.random.default_rng(3))
    return shards, factory


@pytest.fixture(scope="module")
def ring_setup4():
    """The same ring split over 4 workers (MD-GAN scenarios)."""
    train, _ = make_gaussian_ring(n_train=160, n_test=40, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        latent_dim=8,
        hidden=16,
    )
    shards = partition_iid(train, 4, np.random.default_rng(3))
    return shards, factory


@pytest.fixture(scope="module")
def ring_setup6():
    """A larger ring split into 6 shards of 40 (two workers per slot on 3 slots)."""
    train, _ = make_gaussian_ring(n_train=240, n_test=40, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        latent_dim=8,
        hidden=16,
    )
    shards = partition_iid(train, 6, np.random.default_rng(3))
    return shards, factory


def _config(**overrides) -> TrainingConfig:
    base = dict(iterations=6, batch_size=8, seed=11, backend="resident", max_workers=2)
    base.update(overrides)
    return TrainingConfig(**base)


def _adopt_chaos_tcp(trainer, config, schedule=None):
    """Give the trainer a chaos-wrapped loopback tcp pool it owns."""
    transport = ChaosTransport(TcpTransport(connect_timeout=30.0), schedule=schedule)
    backend = ResidentBackend(
        max_workers=config.max_workers,
        transport=transport,
        membership_policy=config.membership_policy(),
    )
    trainer.adopt_backend(backend, owned=True)
    return backend, transport


class TestDegradeTcp:
    def test_killed_tcp_slot_completes_run_and_rebalances(self, ring_setup3):
        # Acceptance (a): a killed TCP slot under "degrade" still completes
        # the run; the evicted worker's shard is redistributed and the final
        # scores land within tolerance of an (N-1)-worker baseline.
        shards, factory = ring_setup3
        config = _config(epochs_per_swap=0.4, on_slot_loss="degrade")
        trainer = FLGANTrainer(factory, shards, config)
        captured_weights = []
        import repro.core.flgan as flgan_mod

        real_average = flgan_mod.weighted_average_parameters

        def capture_average(vectors, weights):
            captured_weights.append(list(weights))
            return real_average(vectors, weights)

        flgan_mod.weighted_average_parameters = capture_average
        try:
            backend, transport = _adopt_chaos_tcp(trainer, config)
            assert trainer.iterations_per_round == 3  # rounds at 3 and 6
            for iteration in (1, 2, 3):
                ExecutionEngine(trainer).sync_iteration(iteration, trainer._sync_iteration)
            # Worker 1 is alone on slot 1 (founding hash placement); killing
            # that slot evicts exactly one worker and leaves two survivors.
            transport.kill_slot(1)
            for iteration in (4, 5, 6):
                ExecutionEngine(trainer).sync_iteration(iteration, trainer._sync_iteration)

            history = trainer.history
            assert history.events_of_kind("slot_loss")
            evicts = history.events_of_kind("membership_evict")
            assert [e["worker"] for e in evicts] == [1]
            assert history.events_of_kind("membership_rebalance")
            assert not trainer.cluster.workers[1].alive
            alive = [w for w in trainer.workers if trainer.cluster.workers[w.index].alive]
            assert sorted(w.index for w in alive) == [0, 2]
            # The evicted worker's whole shard moved to a survivor: the live
            # fleet still covers every training sample.
            assert sum(len(w.sampler) for w in alive) == 160
            assert len(trainer.workers[0].sampler) == len(shards[0]) + len(shards[1])
            assert len(trainer.workers[2].sampler) == len(shards[2])
            # The rebalance went through the reclaim ("mirror, then drop")
            # and the next dispatch re-installed worker 0 with its new shard.
            assert backend.op_bytes_received["pull_state"] > 0
            assert backend.installed(0)
            # FedAvg weights follow the live shard sizes (m_n / sum m):
            # full fleet at the round-3 boundary, survivors-only at round 6.
            assert captured_weights[0] == [float(len(s)) for s in shards]
            assert captured_weights[-1] == [
                float(len(trainer.workers[0].sampler)),
                float(len(trainer.workers[2].sampler)),
            ]
            # Run completed: every iteration kept its loss record, finite.
            assert len(history.iterations) == 6
            assert np.isfinite(history.generator_loss).all()
            assert history.membership["slot_loss"] >= 1
            assert history.membership["evict"] >= 1

            # (N-1)-worker baseline with the same post-rebalance shard
            # layout: the degraded run's final scores stay in its ballpark
            # (loose tolerance — the first 3 iterations ran with 3 workers).
            baseline = FLGANTrainer(
                factory,
                [trainer.workers[0].dataset, trainer.workers[2].dataset],
                _config(epochs_per_swap=0.4, backend="serial"),
            )
            baseline_history = baseline.train()
            assert abs(
                history.mean_generator_loss(last=2)
                - baseline_history.mean_generator_loss(last=2)
            ) < 2.0
        finally:
            flgan_mod.weighted_average_parameters = real_average
            trainer.close_backend()

    def test_late_joiner_revives_after_one_boundary(self, ring_setup3):
        # Acceptance (b): a worker_host started mid-run is admitted through
        # the versioned re-handshake, revives the evicted worker after
        # exactly one rebalance boundary, and contributes from the next
        # iteration on.
        shards, factory = ring_setup3
        config = _config(epochs_per_swap=0.4, on_slot_loss="degrade")
        trainer = FLGANTrainer(factory, shards, config)
        joiner = None
        try:
            backend, transport = _adopt_chaos_tcp(trainer, config)
            for iteration in (1, 2):
                ExecutionEngine(trainer).sync_iteration(iteration, trainer._sync_iteration)
            transport.kill_slot(1)
            ExecutionEngine(trainer).sync_iteration(3, trainer._sync_iteration)
            assert not trainer.cluster.workers[1].alive  # evicted
            assert trainer.elastic.evicted == {1}

            # The elastic pool kept its listener open; dial in a late joiner
            # and wait (bounded) for its connection to reach the backlog.
            inner = transport.inner
            joiner = multiprocessing.Process(
                target=run_worker,
                args=(inner.bound_address,),
                kwargs={"connect_timeout": 30.0},
                daemon=True,
            )
            joiner.start()
            ready, _, _ = select.select([inner._listener], [], [], 30.0)
            assert ready, "late joiner never reached the listener"

            # One boundary admits + revives + rebalances ...
            ExecutionEngine(trainer).sync_iteration(4, trainer._sync_iteration)
            history = trainer.history
            joins = [e for e in history.events_of_kind("membership_join")]
            assert joins and joins[0]["iteration"] == 4
            revives = history.events_of_kind("membership_revive")
            assert [e["worker"] for e in revives] == [1]
            assert trainer.cluster.workers[1].alive
            assert trainer.elastic.evicted == set()
            # ... and the shards are back to their founding layout.
            for worker, shard in zip(trainer.workers, shards):
                assert len(worker.sampler) == len(shard)
            # The revived worker contributes from the very next iteration.
            drawn_before = trainer.workers[1].sampler.samples_drawn
            ExecutionEngine(trainer).sync_iteration(5, trainer._sync_iteration)
            assert trainer.workers[1].sampler.samples_drawn > drawn_before
            assert history.membership["join"] >= 1
            assert history.membership["revive"] >= 1
        finally:
            trainer.close_backend()
            if joiner is not None and joiner.is_alive():
                joiner.terminate()
                joiner.join(timeout=10)


class TestDegradePolicyEdges:
    def test_min_workers_escalates_to_run_failure(self, ring_setup4):
        shards, factory = ring_setup4
        config = _config(transport="pipe", on_slot_loss="degrade", min_workers=4)
        trainer = MDGANTrainer(factory, shards, config)
        try:
            ExecutionEngine(trainer).sync_iteration(1, trainer.train_iteration)
            victim = trainer._backend._transport._processes[0]
            victim.kill()
            victim.join()
            # The boundary evicts slot 0's workers, leaving 2 of 4 alive —
            # below the configured floor: the run fails loudly, not quietly.
            with pytest.raises(TransportError, match="min_workers=4"):
                ExecutionEngine(trainer).sync_iteration(2, trainer.train_iteration)
        finally:
            trainer.close_backend()

    def test_scheduled_crashes_do_not_trip_min_workers(self, ring_setup4):
        # The floor guards evictions only: Fig. 5's crash schedule may take
        # the fleet below it on an elastic pool that never loses a slot.
        shards, factory = ring_setup4
        config = _config(transport="pipe", on_slot_loss="degrade", min_workers=3)
        schedule = CrashSchedule({2: [worker_name(0)], 3: [worker_name(1)]})
        with MDGANTrainer(factory, shards, config, crash_schedule=schedule) as trainer:
            history = trainer.train()
        assert history.iterations[-1] == config.iterations
        assert len(trainer._alive_workers()) == 2

    def test_wait_policy_reassigns_without_eviction(self, ring_setup4):
        # Trainer half of "wait": the lost workers never crash; the boundary
        # blocks for a replacement pipe slot, restores them from the last
        # merged mirror and the run continues with the full fleet.
        shards, factory = ring_setup4
        config = _config(
            transport="pipe",
            on_slot_loss="wait",
            rejoin_backoff=0.05,
            rejoin_timeout=10.0,
            iterations=3,
        )
        trainer = MDGANTrainer(factory, shards, config)
        try:
            ExecutionEngine(trainer).sync_iteration(1, trainer.train_iteration)
            victim = trainer._backend._transport._processes[0]
            victim.kill()
            victim.join()
            ExecutionEngine(trainer).sync_iteration(2, trainer.train_iteration)
            ExecutionEngine(trainer).sync_iteration(3, trainer.train_iteration)
            history = trainer.history
            assert all(node.alive for node in trainer.cluster.workers)
            assert not history.events_of_kind("membership_evict")
            reassigns = history.events_of_kind("membership_reassign")
            assert any(e.get("detail") == "wait-policy heal" for e in reassigns)
            assert history.membership["join"] >= 1
            assert history.membership["slot_loss"] == 1
            assert 3 in history.iterations  # the healed fleet kept training
        finally:
            trainer.close_backend()

    def test_rebuilt_pool_events_reach_the_history(self, ring_setup6):
        # Every pool the trainer used contributes its membership events:
        # a pool rebuilt after close() starts a fresh event list, and the
        # workers its predecessor evicted stay evicted (their shards stay
        # with the survivors).
        shards, factory = ring_setup6
        assert [len(s) for s in shards] == [40] * 6
        config = _config(transport="pipe", max_workers=3, iterations=2, on_slot_loss="degrade")
        trainer = MDGANTrainer(factory, shards, config)
        try:
            for victim in (2, 1):
                trainer.train_iteration(1)
                process = trainer._backend._transport._processes[victim]
                process.kill()
                process.join()
                history = trainer.train()
                trainer.close()
            assert len(history.events_of_kind("slot_loss")) == 2
            evicted = [e["worker"] for e in history.events_of_kind("membership_evict")]
            assert sorted(evicted) == [1, 2, 4, 5]
            recorded = {
                kind: len(history.events_of_kind(f"membership_{kind}"))
                for kind in history.membership
                if kind != "slot_loss"
            }
            recorded["slot_loss"] = len(history.events_of_kind("slot_loss"))
            assert history.membership == recorded
            assert recorded["slot_loss"] == 2 and recorded["evict"] == 4
            alive = trainer._alive_workers()
            assert sorted(w.index for w in alive) == [0, 3]
            assert sum(len(w.sampler) for w in alive) == 240
        finally:
            trainer.close_backend()


class TestAsyncElastic:
    def test_async_degrade_keeps_staleness_bound(self, ring_setup3):
        # Satellite invariant: after a mid-run eviction the async loop's
        # bounded-staleness guarantee must hold exactly as before.
        shards, factory = ring_setup3
        config = _config(
            epochs_per_swap=0.4,
            aggregation="async",
            max_staleness=2,
            on_slot_loss="degrade",
        )
        trainer = FLGANTrainer(factory, shards, config)
        schedule = ChaosSchedule(
            (ChaosAction(slot=1, frame_index=7, kind="disconnect"),)
        )
        try:
            transport = ChaosTransport(
                LocalPipeTransport(serve_slot), schedule=schedule
            )
            backend = ResidentBackend(
                max_workers=2,
                transport=transport,
                membership_policy=config.membership_policy(),
            )
            trainer.adopt_backend(backend, owned=True)
            history = trainer.train()
            assert len(schedule) == 0  # the scripted disconnect fired
            assert history.membership["slot_loss"] >= 1
            assert history.membership["evict"] >= 1
            assert not trainer.cluster.workers[1].alive
            assert history.max_worker_staleness() <= config.max_staleness
            assert np.isfinite(history.generator_loss).all()
        finally:
            trainer.close_backend()

    def test_async_degrade_redistributes_evicted_shards(self, ring_setup6):
        # Under async "degrade" the pending loss drains the collector and
        # runs the same boundary as a synchronous iteration: the evicted
        # workers' shards move to survivors, so no sample leaves the run.
        shards, factory = ring_setup6
        config = _config(
            iterations=12,
            epochs_per_swap=0.4,
            aggregation="async",
            max_staleness=2,
            max_workers=3,
            on_slot_loss="degrade",
        )
        trainer = MDGANTrainer(factory, shards, config)
        schedule = ChaosSchedule((ChaosAction(slot=2, frame_index=5, kind="disconnect"),))
        try:
            transport = ChaosTransport(LocalPipeTransport(serve_slot), schedule=schedule)
            backend = ResidentBackend(
                max_workers=3,
                transport=transport,
                membership_policy=config.membership_policy(),
            )
            trainer.adopt_backend(backend, owned=True)
            history = trainer.train()
            assert len(schedule) == 0  # the scripted disconnect fired
            assert history.membership["evict"] >= 1
            assert history.events_of_kind("membership_rebalance")
            alive = trainer._alive_workers()
            assert len(alive) < len(shards)
            assert sum(len(w.sampler) for w in alive) == 240
            assert history.max_worker_staleness() <= config.max_staleness
            assert np.isfinite(history.generator_loss).all()
        finally:
            if transport.started:
                transport.kill_slot(2)
            trainer.close_backend()

    def test_async_late_joiner_admitted_as_capacity(self, ring_setup3):
        # With no slot loss the async loop never enters its drain barrier,
        # so a late joiner is admitted at a flush as extra capacity (counted;
        # there is no evicted worker to revive) and the staleness bound holds.
        shards, factory = ring_setup3
        config = _config(
            epochs_per_swap=0.4,
            aggregation="async",
            max_staleness=2,
            on_slot_loss="degrade",
        )
        trainer = FLGANTrainer(factory, shards, config)
        joiner = None
        try:
            backend, transport = _adopt_chaos_tcp(trainer, config)
            inner = transport.inner
            address = inner.listen(config.max_workers)
            # Dial a third worker host at the 2-slot pool *before* training:
            # it waits in the listener backlog past the founding accepts and
            # is admitted mid-run at an aggregation boundary.
            joiner = multiprocessing.Process(
                target=run_worker,
                args=(address,),
                kwargs={"connect_timeout": 60.0},
                daemon=True,
            )
            joiner.start()
            history = trainer.train()
            assert history.membership.get("join", 0) >= 1
            assert history.max_worker_staleness() <= config.max_staleness
            assert np.isfinite(history.generator_loss).all()
            assert all(node.alive for node in trainer.cluster.workers)
        finally:
            trainer.close_backend()
            if joiner is not None and joiner.is_alive():
                joiner.terminate()
                joiner.join(timeout=10)


# -- composed modes under chaos ----------------------------------------------------


class TestComposedElastic:
    """Elastic policies composed with the pipelined and async schedules.

    The execution engine drains whatever window is in flight before any
    membership remap touches the pool, so the elastic boundary pipeline
    (evict/wait, admit, revive, rebalance) always runs against a quiescent
    collector — these tests pin that composition under scripted faults.
    """

    pytestmark = pytest.mark.composition

    def test_mdgan_pipelined_degrade_redistributes_shards(self, ring_setup3):
        # MD-GAN at pipeline_depth 1 under "degrade": a scripted mid-run
        # disconnect drains the in-flight window, evicts the lost worker at
        # the boundary, redistributes its shard, and the run completes.
        shards, factory = ring_setup3
        config = _config(pipeline_depth=1, on_slot_loss="degrade")
        trainer = MDGANTrainer(factory, shards, config)
        schedule = ChaosSchedule(
            (ChaosAction(slot=1, frame_index=3, kind="disconnect"),)
        )
        try:
            transport = ChaosTransport(
                LocalPipeTransport(serve_slot), schedule=schedule
            )
            backend = ResidentBackend(
                max_workers=2,
                transport=transport,
                membership_policy=config.membership_policy(),
            )
            trainer.adopt_backend(backend, owned=True)
            history = trainer.train()
            assert len(schedule) == 0  # the scripted disconnect fired
            assert history.membership["slot_loss"] >= 1
            evicts = history.events_of_kind("membership_evict")
            assert [e["worker"] for e in evicts] == [1]
            assert not trainer.cluster.workers[1].alive
            # The evicted worker's shard moved to a survivor: the live
            # fleet still covers every training sample.
            alive = [
                w for w in trainer.workers if trainer.cluster.workers[w.index].alive
            ]
            assert sum(len(w.sampler) for w in alive) == 160
            assert history.events_of_kind("membership_rebalance")
            # The run completed its full schedule with finite losses and
            # the pipelined overlap summary intact.
            assert len(history.iterations) == config.iterations
            assert np.isfinite(history.generator_loss).all()
            assert history.overlap["pipeline_depth"] == 1.0
        finally:
            trainer.close_backend()

    @pytest.mark.parametrize("policy", ("degrade", "wait"))
    def test_second_slot_loss_inside_the_drain_stays_on_the_recovery_path(
        self, policy, ring_setup3
    ):
        # Regression: iteration 1 at depth 2 leaves two lookahead ``generate``
        # handles in flight on all three slots.  Slot 1 dies under the merge,
        # so collecting the first handle raises SlotLossError and the
        # recovery path drains the second one — and slot 2 is found dead
        # *inside that drain*.  The drain is discard-only: the second loss
        # must become LOST entries for the boundary pipeline, not a
        # SlotLossError escaping the ``except SlotLossError`` handler.
        shards, factory = ring_setup3
        config = _config(
            max_workers=3,
            num_batches=3,
            pipeline_depth=2,
            on_slot_loss=policy,
            rejoin_backoff=0.05,
            rejoin_timeout=10.0,
        )
        trainer = MDGANTrainer(factory, shards, config)
        transport = ChaosTransport(LocalPipeTransport(serve_slot))
        backend = ResidentBackend(
            max_workers=3, transport=transport, membership_policy=config.membership_policy()
        )
        trainer.adopt_backend(backend, owned=True)
        merge, drain = trainer._merge_worker_phase, backend.drain_inflight

        def merge_under_first_kill(iteration, live_workers, handle):
            if iteration == 1:
                transport.kill_slot(1)
            return merge(iteration, live_workers, handle)

        def drain_under_second_kill():
            if backend.membership.counters.get("slot_loss") == 1:
                transport.kill_slot(2)
            return drain()

        trainer._merge_worker_phase = merge_under_first_kill
        backend.drain_inflight = drain_under_second_kill
        try:
            history = trainer.train()
            assert history.membership["slot_loss"] == 2
            assert len(history.events_of_kind("membership_iteration_loss")) == 1
            evicted = [e["worker"] for e in history.events_of_kind("membership_evict")]
            if policy == "degrade":
                assert evicted == [1, 2]
                assert [n.alive for n in trainer.cluster.workers] == [True, False, False]
            else:
                assert evicted == []
                assert all(node.alive for node in trainer.cluster.workers)
                assert history.membership["join"] >= 1
            # Iteration 1 lost its un-merged remainder; the rest of the
            # schedule ran to the end on what survived.
            assert history.iterations == list(range(2, config.iterations + 1))
            assert np.isfinite(history.generator_loss).all()
        finally:
            trainer.close_backend()

    def test_mdgan_async_wait_heals_without_eviction(self, ring_setup4):
        # "wait" under async: the engine's drain barrier empties the
        # collector (consuming every queued LOST), blocks for a replacement
        # slot, reassigns the lost workers there, and the loop resumes with
        # the full fleet — no evictions, bound intact.
        shards, factory = ring_setup4
        config = _config(
            aggregation="async",
            max_staleness=2,
            on_slot_loss="wait",
            rejoin_backoff=0.05,
            rejoin_timeout=10.0,
        )
        trainer = MDGANTrainer(factory, shards, config)
        schedule = ChaosSchedule(
            (ChaosAction(slot=1, frame_index=3, kind="disconnect"),)
        )
        try:
            transport = ChaosTransport(
                LocalPipeTransport(serve_slot), schedule=schedule
            )
            backend = ResidentBackend(
                max_workers=2,
                transport=transport,
                membership_policy=config.membership_policy(),
            )
            trainer.adopt_backend(backend, owned=True)
            history = trainer.train()
            assert len(schedule) == 0
            assert history.membership["slot_loss"] == 1
            assert history.membership["join"] >= 1
            assert all(node.alive for node in trainer.cluster.workers)
            assert not history.events_of_kind("membership_evict")
            reassigns = history.events_of_kind("membership_reassign")
            assert any(e.get("detail") == "wait-policy heal" for e in reassigns)
            assert len(history.iterations) == config.iterations
            assert history.max_worker_staleness() <= config.max_staleness
            assert np.isfinite(history.generator_loss).all()
        finally:
            trainer.close_backend()

    def test_flgan_async_wait_heals_without_eviction(self, ring_setup3):
        shards, factory = ring_setup3
        config = _config(
            epochs_per_swap=0.4,
            aggregation="async",
            max_staleness=2,
            on_slot_loss="wait",
            rejoin_backoff=0.05,
            rejoin_timeout=10.0,
        )
        trainer = FLGANTrainer(factory, shards, config)
        schedule = ChaosSchedule(
            (ChaosAction(slot=1, frame_index=3, kind="disconnect"),)
        )
        try:
            transport = ChaosTransport(
                LocalPipeTransport(serve_slot), schedule=schedule
            )
            backend = ResidentBackend(
                max_workers=2,
                transport=transport,
                membership_policy=config.membership_policy(),
            )
            trainer.adopt_backend(backend, owned=True)
            history = trainer.train()
            assert len(schedule) == 0
            assert history.membership["slot_loss"] == 1
            assert history.membership["join"] >= 1
            assert all(node.alive for node in trainer.cluster.workers)
            assert not history.events_of_kind("membership_evict")
            reassigns = history.events_of_kind("membership_reassign")
            assert any(e.get("detail") == "wait-policy heal" for e in reassigns)
            assert history.max_worker_staleness() <= config.max_staleness
            assert np.isfinite(history.generator_loss).all()
        finally:
            trainer.close_backend()

    def test_async_degrade_with_pipeline_depth(self, ring_setup3):
        # The full composition: async aggregation x lookahead window x
        # elastic degrade, in one run.  The bound and the discard
        # accounting must survive the eviction.
        shards, factory = ring_setup3
        config = _config(
            aggregation="async",
            max_staleness=2,
            pipeline_depth=1,
            on_slot_loss="degrade",
        )
        trainer = MDGANTrainer(factory, shards, config)
        # Worker 1's dispatch frames carry its install inline, so slot 1
        # sees only a handful of frames in this 3-worker run: frame 1 is
        # its second in-flight unit, squarely mid-training.
        schedule = ChaosSchedule(
            (ChaosAction(slot=1, frame_index=1, kind="disconnect"),)
        )
        try:
            transport = ChaosTransport(
                LocalPipeTransport(serve_slot), schedule=schedule
            )
            backend = ResidentBackend(
                max_workers=2,
                transport=transport,
                membership_policy=config.membership_policy(),
            )
            trainer.adopt_backend(backend, owned=True)
            history = trainer.train()
            assert len(schedule) == 0
            assert history.membership["slot_loss"] >= 1
            assert history.membership["evict"] >= 1
            assert not trainer.cluster.workers[1].alive
            assert len(history.iterations) == config.iterations
            assert history.max_worker_staleness() <= config.max_staleness
            assert np.isfinite(history.generator_loss).all()
        finally:
            trainer.close_backend()


# -- fail-stop stays bitwise identical ---------------------------------------------


class TestFailStopParity:
    def test_fail_stop_bitwise_identical_across_backends(self, ring_setup4):
        # Acceptance (c): the explicit fail-stop policy runs zero elastic
        # code and stays bitwise identical on all four backends.
        shards, factory = ring_setup4
        reference = None
        for backend in ("serial", "thread", "process", "resident"):
            trainer = MDGANTrainer(
                factory,
                shards,
                _config(backend=backend, iterations=3, on_slot_loss="fail_stop"),
            )
            history = trainer.train()
            trainer.close_backend()
            signature = (
                history.generator_loss,
                history.discriminator_loss,
                history.events,
                trainer.generator.get_parameters(),
            )
            if reference is None:
                reference = signature
                assert history.membership == {}  # no elastic code ran
                continue
            assert signature[0] == reference[0]
            assert signature[1] == reference[1]
            assert signature[2] == reference[2]
            assert np.array_equal(signature[3], reference[3])
