"""Every dispatched async unit is answered exactly once, wherever a slot dies.

The async engine keeps one record of outstanding dispatches
(``AsyncContext.units``) and raises :class:`~repro.core.engine.UnitAccountingError`
when an answer arrives for a key with no outstanding unit.  These tests
script slot losses deterministically through
:class:`~repro.runtime.transport.chaos.ChaosTransport`:

* at the backend, a lost slot answers only the frames queued on it, once
  each — keys installed there but idle surface through
  ``membership.pending_loss`` alone;
* at the trainer, a slot that dies under an inline re-dispatch (the send
  itself fails) heals under ``wait`` with no eviction and the bound held;
* a kill at each of the first frames of a short run never breaks the
  exactly-once record, under ``degrade`` and ``wait``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_toy_gan
from repro.runtime import (
    LOST,
    ChaosAction,
    ChaosSchedule,
    ChaosTransport,
    MembershipPolicy,
    ResidentBackend,
)
from repro.runtime.resident import ResidentProgram, register_program, serve_slot
from repro.runtime.transport import LocalPipeTransport

pytestmark = pytest.mark.chaos


# Registered at import time, before any pool forks, so pipe slots inherit it.
def _count_step(state, payload):
    state["count"] = state.get("count", 0) + 1
    return state["count"], payload


register_program(
    ResidentProgram(
        name="once-echo",
        step=_count_step,
        pull_params=dict,
        push_params=lambda state, params: state.update(params),
    )
)


def _fresh_state():
    return {"count": 0}


def _pipe_pool(policy, schedule=None):
    """A 2-slot elastic pipe pool behind the chaos harness."""
    transport = ChaosTransport(LocalPipeTransport(serve_slot), schedule=schedule)
    return ResidentBackend(max_workers=2, transport=transport, membership_policy=policy)


def test_lost_slot_answers_only_the_frames_queued_on_it():
    # Keys 1 and 3 both live on slot 1 (founding hash placement) and sit
    # idle.  Slot 1 dies; dispatching key 1 fails inline at the send.  The
    # collector must answer that one dispatch once and invent nothing for
    # the idle key 3, which the trainer learns about from pending_loss.
    backend = _pipe_pool(MembershipPolicy(on_slot_loss="degrade"))
    try:
        assert backend.run_steps(
            "once-echo", [(1, _fresh_state, "a"), (3, _fresh_state, "b")]
        ) == [(1, "a"), (1, "b")]
        assert backend._slot_for(1) == backend._slot_for(3) == 1
        collector = backend.open_collector("once-echo")
        backend._transport.kill_slot(1)
        collector.dispatch(1, _fresh_state, "c")
        assert collector.outstanding == 1
        assert collector.collect_any() == (1, LOST)
        assert collector.outstanding == 0
        assert backend.membership.pending_loss == {1, 3}
        assert backend.membership.counters["slot_loss"] == 1
    finally:
        backend.close()


@pytest.fixture(scope="module")
def ring_setup4():
    """A tiny ring dataset split over 4 workers, plus a matched toy GAN."""
    train, _ = make_gaussian_ring(n_train=160, n_test=40, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape, num_classes=train.num_classes, latent_dim=8, hidden=16
    )
    return partition_iid(train, 4, np.random.default_rng(3)), factory


def _config(policy: str, **overrides) -> TrainingConfig:
    base = dict(
        iterations=6,
        batch_size=8,
        seed=11,
        backend="resident",
        max_workers=2,
        aggregation="async",
        max_staleness=2,
        epochs_per_swap=0.4,
        on_slot_loss=policy,
        rejoin_backoff=0.01,
        rejoin_timeout=10.0,
    )
    base.update(overrides)
    return TrainingConfig(**base)


def _trainer(cls, setup, config, schedule=None):
    shards, factory = setup
    trainer = cls(factory, shards, config)
    trainer.adopt_backend(_pipe_pool(config.membership_policy(), schedule), owned=True)
    return trainer


@pytest.mark.parametrize("cls", (MDGANTrainer, FLGANTrainer))
def test_slot_lost_under_an_inline_redispatch_heals(cls, ring_setup4):
    # The first train() leaves keys 1 and 3 installed on slot 1 and the
    # pool idle.  With slot 1 killed in between, the second train()'s first
    # dispatch of key 1 is an inline send that fails: one LOST for key 1,
    # key 3 lost while idle.  Neither may be answered twice, and key 3 must
    # not be re-dispatched onto the survivor before the heal.
    config = _config("wait")
    trainer = _trainer(cls, ring_setup4, config)
    try:
        trainer.train()
        backend = trainer._backend
        assert backend._slot_for(1) == backend._slot_for(3) == 1
        assert backend.installed(1) and backend.installed(3)
        backend._transport.kill_slot(1)
        history = trainer.train()
        assert history.membership["slot_loss"] == 1
        assert history.membership["join"] >= 1
        assert all(node.alive for node in trainer.cluster.workers)
        assert not history.events_of_kind("membership_evict")
        healed = {
            e["worker"]
            for e in history.events_of_kind("membership_reassign")
            if e.get("detail") == "wait-policy heal"
        }
        assert healed == {1, 3}
        assert history.max_worker_staleness() <= config.max_staleness
        assert np.isfinite(history.generator_loss).all()
    finally:
        trainer.close_backend()


def _kill_at(cls, setup, policy, frame_index):
    schedule = ChaosSchedule((ChaosAction(slot=1, frame_index=frame_index, kind="disconnect"),))
    config = _config(policy)
    trainer = _trainer(cls, setup, config, schedule)
    transport = trainer._backend.transport
    try:
        history = trainer.train()
        assert len(schedule) == 0  # the scripted disconnect fired
        assert history.membership["slot_loss"] == 1
        assert history.max_worker_staleness() <= config.max_staleness
        assert np.isfinite(history.generator_loss).all()
        if cls is MDGANTrainer:
            assert len(history.iterations) == config.iterations
        if policy == "wait":
            assert all(node.alive for node in trainer.cluster.workers)
            assert not history.events_of_kind("membership_evict")
    finally:
        # A disconnect only closes the owner's end; terminate the orphaned
        # slot process so the pool's shutdown does not wait it out.
        if transport.started:
            transport.kill_slot(1)
        trainer.close_backend()


@pytest.mark.composition
@pytest.mark.parametrize("policy", ("degrade", "wait"))
@pytest.mark.parametrize("frame_index", range(6))
def test_mdgan_kill_at_every_frame(policy, frame_index, ring_setup4):
    _kill_at(MDGANTrainer, ring_setup4, policy, frame_index)


@pytest.mark.composition
@pytest.mark.parametrize("policy", ("degrade", "wait"))
@pytest.mark.parametrize("frame_index", (1, 4))
def test_flgan_kill_at_frame(policy, frame_index, ring_setup4):
    _kill_at(FLGANTrainer, ring_setup4, policy, frame_index)
