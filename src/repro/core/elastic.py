"""Elastic membership, trainer side: the controller a trainer *has*.

The backend half of elastic membership lives in
:mod:`repro.runtime.membership` / :mod:`repro.runtime.resident`: dead slots
are quarantined instead of poisoning the pool, and the worker keys whose
resident state died with a slot are queued in ``membership.pending_loss``.
:class:`MembershipController` is the *trainer* half.  A trainer holds one in
``trainer.elastic`` when ``on_slot_loss != "fail_stop"`` and ``None``
otherwise, so fail-stop runs execute no code from this module.

:class:`~repro.core.engine.ExecutionEngine` is its only caller.  The
synchronous schedule runs :meth:`MembershipController.boundary` after every
iteration; the asynchronous schedule runs it behind a drain barrier whenever
a loss is pending.  One boundary, in this order:

* take the pending losses and apply the policy — ``degrade`` evicts the
  lost workers like crashes, ``wait`` blocks for replacement capacity and
  reassigns them onto it, restored from their last boundary mirror;
* admit late joiners; a join revives every evicted worker from its mirror;
* rebalance: evicted workers' founding shards are redistributed across the
  survivors;
* refresh the mirrors (what a reassigned/revived worker restarts from —
  un-merged contributions are discarded, exactly like a crash);
* publish the pool's new events into ``TrainingHistory``;
* fail the run if ``degrade`` left fewer than ``min_workers`` alive.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..datasets.base import ImageDataset
from ..runtime.membership import MembershipPolicy, PoolMembership
from ..runtime.tasks import restore_mirror
from ..runtime.transport import TransportError

__all__ = ["MembershipController"]


class MembershipController:
    """Trainer-side elastic membership state and its one boundary (see module docstring)."""

    def __init__(self, trainer: Any, policy: MembershipPolicy) -> None:
        self.trainer = trainer
        self.policy = policy
        #: Construction-time shard per worker index; rebalance targets are
        #: always recomputed from these, so repeated rebalances are idempotent.
        self.founding: Dict[int, ImageDataset] = {w.index: w.dataset for w in trainer.workers}
        #: Founding shards currently folded into each worker's dataset
        #: (worker index -> tuple of evicted worker indices, sorted).
        self.extras: Dict[int, Tuple[int, ...]] = {w.index: () for w in trainer.workers}
        #: Worker keys evicted by ``degrade`` (revivable by a later join).
        self.evicted: Set[Any] = set()
        #: Last boundary mirror per worker key.
        self.mirrors: Dict[Any, Any] = {}
        #: Set when evictions/revivals changed the live fleet; cleared by the
        #: next rebalance.
        self.rebalance_pending = False
        #: The pool membership whose events are published, and how many of
        #: them already are (one cursor per pool).
        self._pool: Optional[PoolMembership] = None
        self._published = 0

    # -- the pool ----------------------------------------------------------------
    def _membership(self) -> PoolMembership:
        """The current pool's membership state, noticing a rebuilt pool."""
        membership = self.trainer.executor.membership
        if membership is not self._pool:
            # A rebuilt pool installs from the objects its predecessor's
            # close reclaimed, so only evicted workers keep their mirror.
            self._pool, self._published = membership, 0
            self.mirrors = {key: m for key, m in self.mirrors.items() if key in self.evicted}
        return membership

    @property
    def pending_loss(self) -> Set[Any]:
        """Worker keys whose resident state died with a slot, not yet handled."""
        return self._membership().pending_loss

    def publish(self, iteration: int) -> None:
        """Record the pool's unpublished events in the history and count them."""
        membership = self._membership()
        history = self.trainer.history
        for event in membership.events[self._published :]:
            kind = event.kind if event.kind == "slot_loss" else f"membership_{event.kind}"
            details: Dict[str, Any] = {}
            if event.slot is not None:
                details["slot"] = event.slot
            if event.worker is not None:
                details["worker"] = event.worker
            if event.detail:
                details["detail"] = event.detail
            history.record_event(iteration, kind, **details)
            history.membership[event.kind] = history.membership.get(event.kind, 0) + 1
        self._published = len(membership.events)

    # -- the boundary --------------------------------------------------------------
    def boundary(self, iteration: int) -> List[Any]:
        """Run the membership boundary against a quiescent pool.

        Returns the worker keys that left or re-entered the fleet here (the
        lost ones, then any revived ones).
        """
        membership = self._membership()
        lost = membership.take_pending_loss()
        degrade = self.policy.on_slot_loss == "degrade"
        if lost and not degrade:
            self._wait_for_replacement(membership, lost)
        for key in lost if degrade else ():
            node = self.trainer.cluster.workers[key]
            if node.alive:
                node.crash()
            self.evicted.add(key)
            membership.record("evict", worker=key, detail="slot loss")
            self.rebalance_pending = True
        joined = self.admit_joiners()
        revived = sorted(self.evicted, key=repr) if joined else []
        for key in revived:
            self.trainer.cluster.workers[key].rejoin()
            self._restore(key)
            self.evicted.discard(key)
            membership.record("revive", slot=joined[-1], worker=key)
            self.rebalance_pending = True
        if self.rebalance_pending:
            self._rebalance(membership)
        self._snapshot()
        self.publish(iteration)
        # The floor guards evictions; a scheduled (Fig. 5) crash is no eviction.
        if lost and degrade:
            alive = len(self.trainer._alive_workers())
            if alive < self.policy.min_workers:
                raise TransportError(
                    f"elastic pool degraded to {alive} live worker(s), below "
                    f"min_workers={self.policy.min_workers}"
                )
        return lost + revived

    def absorb_close_loss(self) -> None:
        """Publish a slot lost under ``close()``; restore its workers from their mirrors."""
        for key in self._membership().take_pending_loss():
            self._restore(key)
        self.publish((self.trainer.history.iterations or [0])[-1])

    def admit_joiners(self) -> List[int]:
        """Admit every late joiner currently waiting; return their slot indices."""
        pool = self.trainer.executor
        joined: List[int] = []
        slot = pool.admit_joiner(timeout=0.0)
        while slot is not None:
            joined.append(slot)
            slot = pool.admit_joiner(timeout=0.0)
        return joined

    def _restore(self, key: Any) -> None:
        """Set worker ``key``'s objects to its last boundary mirror, if any."""
        mirror = self.mirrors.get(key)
        if mirror is not None:
            restore_mirror(self.trainer.workers[key], mirror)

    def _wait_for_replacement(self, membership: PoolMembership, lost: List[Any]) -> None:
        """``wait``: block for replacement capacity, then reassign the lost workers.

        The lost workers stay alive, restored from their last mirror (or kept
        as the trainer's objects, the consistent install-time state, when no
        boundary has passed yet — either way everything the slot did since
        is gone, exactly the crash-discard semantics); the next dispatch
        reinstalls them on a surviving slot.  Raises :class:`TransportError`
        when no capacity appears within ``rejoin_timeout``.
        """
        pool = self.trainer.executor
        deadline = time.monotonic() + self.policy.rejoin_timeout
        slot = None
        while slot is None:
            slot = pool.admit_joiner(timeout=self.policy.rejoin_backoff)
            if slot is None:
                slot = pool.open_replacement_slot()
            if slot is None:
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"on_slot_loss='wait': no replacement capacity within "
                        f"rejoin_timeout={self.policy.rejoin_timeout}s for lost "
                        f"workers {lost!r}"
                    )
                time.sleep(self.policy.rejoin_backoff)
        for key in lost:
            self._restore(key)
            membership.record("reassign", slot=slot, worker=key, detail="wait-policy heal")

    def _rebalance(self, membership: PoolMembership) -> None:
        """Redistribute evicted workers' founding shards across survivors.

        Targets are recomputed from the founding shards and the *current*
        evicted set (idempotent): evicted shard ``d`` goes whole to the
        survivor at position ``pos(d) mod len(survivors)`` in index order.
        Workers whose target changed are reclaimed from the pool, handed the
        concatenated dataset via ``replace_dataset`` (live FedAvg weights
        follow ``len(worker.sampler)`` automatically), and reinstalled on
        their next dispatch.
        """
        alive = sorted(w.index for w in self.trainer._alive_workers())
        targets: Dict[int, List[int]] = {index: [] for index in alive}
        for position, evicted_key in enumerate(sorted(self.evicted, key=repr) if alive else ()):
            targets[alive[position % len(alive)]].append(evicted_key)
        moved = 0
        for worker in self.trainer.workers:
            index = worker.index
            extras = tuple(targets.get(index, ()))
            if index not in targets or self.extras[index] == extras:
                continue
            base = self.founding[index]
            dataset = base
            if extras:
                images = np.concatenate([base.images] + [self.founding[d].images for d in extras])
                labels = np.concatenate([base.labels] + [self.founding[d].labels for d in extras])
                dataset = ImageDataset(
                    images=images,
                    labels=labels,
                    spec=base.spec,
                    name=f"{base.name}+{len(extras)}shard",
                    dtype=base.dtype,
                )
            # Reclaim first: the pool copy (if any) is dropped and the epoch
            # bumped, so the mutated sampler/dataset reinstall cleanly.
            self.trainer.sync_worker_state([worker])
            worker.dataset = dataset
            worker.sampler.replace_dataset(dataset)
            self.extras[index] = extras
            moved += 1
        if moved:
            membership.record("rebalance", detail=f"{moved} worker shard(s) changed")
        self.rebalance_pending = False

    def _snapshot(self) -> None:
        """Refresh the mirrors of every alive, installed worker."""
        pool = self.trainer.executor
        keys = [w.index for w in self.trainer._alive_workers() if pool.installed(w.index)]
        if keys:
            self.mirrors.update(pool.pull_mirror(keys))
