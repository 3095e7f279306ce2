"""Elastic-membership trainer mixin: evict, wait, revive, rebalance.

The backend half of elastic membership lives in
:mod:`repro.runtime.membership` / :mod:`repro.runtime.resident`: dead slots
are quarantined instead of poisoning the pool, and the worker keys whose
resident state died with a slot are queued in ``membership.pending_loss``.
This module is the *trainer* half, shared by
:class:`~repro.core.mdgan.MDGANTrainer` and
:class:`~repro.core.flgan.FLGANTrainer`:

* consume pending losses at the iteration/round boundary and apply the
  configured policy — ``degrade`` evicts the lost workers like crashes (and
  redistributes their shards across survivors), ``wait`` blocks for
  replacement capacity and reassigns the lost workers onto it;
* admit late joiners between iterations, reviving evicted workers from
  their last merged mirror;
* keep per-boundary mirrors so a reassigned/revived worker restarts from
  the last *merged* state (un-merged contributions are discarded, exactly
  like a crash);
* surface every transition as ``membership_*`` / ``slot_loss`` events in
  ``TrainingHistory`` plus the counter summary next to the meters.

Under the default fail-stop policy :meth:`_membership` returns ``None`` and
every hook below is a no-op-before-first-branch, so fail-stop runs stay
bitwise identical to the pre-membership trainers.

Host-class contract: ``self.workers`` (objects with ``index`` / ``dataset``
/ ``sampler``), ``self.cluster.workers[i]`` nodes (``alive`` / ``crash()``
/ ``rejoin()``), ``self.config``, ``self.history`` and the
:class:`~repro.core.lifecycle.WorkerStateOwner` methods
(``_active_resident()``, ``_alive_workers()``,
``sync_worker_state(workers, reclaim)``,
``_restore_worker_from_mirror(worker, mirror)``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..datasets.base import ImageDataset
from ..runtime.membership import PoolMembership, SlotLossError
from ..runtime.transport import TransportError

__all__ = ["ElasticMembershipMixin"]


class ElasticMembershipMixin:
    """Trainer-side elastic membership (see module docstring)."""

    #: Construction-time shard per worker index, captured lazily at the
    #: first elastic boundary; rebalance targets are always recomputed from
    #: these, so repeated rebalances are idempotent.
    _founding_shards: Optional[Dict[int, ImageDataset]] = None
    #: Extra founding shards currently folded into each worker's dataset
    #: (worker index -> tuple of evicted worker indices, sorted).
    _shard_extras: Optional[Dict[int, Tuple[int, ...]]] = None
    #: Membership events already mirrored into the history.
    _membership_events_seen: int = 0
    #: Set when evictions/revivals changed the live fleet; cleared by the
    #: next boundary rebalance.
    _rebalance_pending: bool = False

    # -- plumbing ----------------------------------------------------------------
    def _membership(self) -> Optional[PoolMembership]:
        """The pool's live membership state, or ``None`` (fail-stop / no pool)."""
        resident = self._active_resident()
        if resident is None and self.config.membership_policy() is not None:
            # The backend is built lazily; force it so an elastic config is
            # elastic from iteration 1, not from the first dispatch.
            if getattr(self.executor, "supports_resident", False):
                resident = self._active_resident()
        if resident is None:
            return None
        return resident.membership

    def _sync_membership_events(self, iteration: int) -> None:
        """Mirror newly recorded backend membership events into the history."""
        membership = self._membership()
        if membership is None:
            return
        events = membership.events
        for event in events[self._membership_events_seen :]:
            kind = event.kind if event.kind == "slot_loss" else f"membership_{event.kind}"
            details: Dict[str, Any] = {}
            if event.slot is not None:
                details["slot"] = event.slot
            if event.worker is not None:
                details["worker"] = event.worker
            if event.detail:
                details["detail"] = event.detail
            self.history.record_event(iteration, kind, **details)
        self._membership_events_seen = len(events)
        resident = self._active_resident()
        if resident is not None:
            self.history.membership = resident.membership_counters()

    # -- the per-iteration wrapper -----------------------------------------------
    def _elastic_iteration(self, iteration: int, body) -> None:
        """Run one synchronous iteration with membership recovery around it.

        Fail-stop (or non-resident) runs call ``body`` directly and return —
        zero elastic code on that path.  Elastic runs additionally absorb a
        mid-iteration :class:`SlotLossError` (the un-merged remainder of the
        iteration is discarded, like a crash) and then run the boundary
        pipeline: apply the loss policy, admit joiners / revive, rebalance
        shards, refresh mirrors.

        Pipelined bodies compose through two hooks: a loss (raised or
        pending) first drains the in-flight window via
        :meth:`_drain_pipeline_for_membership`, and the boundary pipeline
        only runs when :meth:`_pipeline_idle` reports a quiescent pool —
        its mirror/rebalance operations require no in-flight work.
        """
        if self._membership() is None:
            body(iteration)
            return
        try:
            body(iteration)
        except SlotLossError as exc:
            self.history.record_event(
                iteration,
                "membership_iteration_loss",
                slot=exc.slot_index,
                detail=str(exc),
            )
            self._drain_pipeline_for_membership()
        if self._membership().pending_loss and not self._pipeline_idle():
            self._drain_pipeline_for_membership()
        if self._pipeline_idle():
            self._membership_boundary(iteration)

    def _membership_boundary(self, iteration: int) -> None:
        """The aggregation-boundary membership pipeline (sync loops only)."""
        membership = self._membership()
        if membership is None:
            return
        lost = membership.take_pending_loss()
        if lost:
            self._apply_loss_policy(iteration, lost)
        joined = self._admit_joiners(iteration)
        if joined and membership.evicted:
            self._revive_evicted(iteration, joined[-1])
        if self._rebalance_pending:
            self._rebalance_shards(iteration)
        self._membership_snapshot()
        self._sync_membership_events(iteration)
        # The floor guards evictions; a scheduled (Fig. 5) crash is no eviction.
        if lost and membership.policy.on_slot_loss == "degrade":
            self._check_min_workers(membership)

    # -- pipeline composition hooks ------------------------------------------------
    def _pipeline_idle(self) -> bool:
        """Whether no pipelined work is in flight (boundary ops need this)."""
        return True

    def _drain_pipeline_for_membership(self) -> None:
        """Flush/discard the in-flight lookahead window before a remap.

        Default is a no-op (depth-0 bodies are always drained at the
        boundary); pipelined trainers override it to merge or discard their
        window so the membership pipeline meets a quiescent pool.
        """

    # -- loss policies -----------------------------------------------------------
    def _apply_loss_policy(self, iteration: int, lost_keys: List[Any]) -> None:
        """Dispatch one batch of lost workers to the configured policy."""
        membership = self._membership()
        if membership.policy.on_slot_loss == "wait":
            self._wait_for_replacement(iteration, lost_keys)
        else:  # degrade
            for key in lost_keys:
                self._evict_worker(iteration, key, detail="slot loss")

    def _evict_worker(self, iteration: int, key: Any, detail: str = "") -> None:
        """Evict one worker crash-style (revivable by a later joiner)."""
        membership = self._membership()
        node = self.cluster.workers[key]
        if node.alive:
            node.crash()
        membership.evicted.add(key)
        membership.record("evict", worker=key, detail=detail)
        self._rebalance_pending = True

    def _check_min_workers(self, membership: PoolMembership) -> None:
        """Escalate to a run failure when the fleet shrank below the floor."""
        floor = membership.policy.min_workers
        alive = len(self._alive_workers())
        if alive < floor:
            raise TransportError(
                f"elastic pool degraded to {alive} live worker(s), below "
                f"min_workers={floor}"
            )

    def _wait_for_replacement(self, iteration: int, lost_keys: List[Any]) -> None:
        """``wait`` policy: block for replacement capacity, then reassign.

        Shared by the synchronous boundary and the async drain-barrier heal.

        The lost workers stay alive; once a replacement/joiner slot exists
        their state is restored from the last merged mirror (or kept as the
        trainer's current objects when no boundary has passed yet — both are
        exactly the crash-discard semantics: everything since the last merge
        is gone) and the next dispatch reinstalls them on a surviving slot.
        """
        membership = self._membership()
        slot = self._block_for_replacement(lost_keys)
        for key in lost_keys:
            mirror = membership.mirrors.get(key)
            if mirror is not None:
                self._restore_worker_from_mirror(self.workers[key], mirror)
            membership.record("reassign", slot=slot, worker=key, detail="wait-policy heal")

    def _block_for_replacement(self, lost_keys: List[Any]) -> int:
        """Block until a joiner/replacement slot exists; return its index.

        Raises :class:`TransportError` when no capacity appears within
        ``rejoin_timeout``.
        """
        membership = self._membership()
        resident = self._active_resident()
        policy = membership.policy
        deadline = time.monotonic() + policy.rejoin_timeout
        slot = None
        while slot is None:
            slot = resident.admit_joiner(timeout=policy.rejoin_backoff)
            if slot is None:
                slot = resident.open_replacement_slot()
            if slot is None:
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"on_slot_loss='wait': no replacement capacity within "
                        f"rejoin_timeout={policy.rejoin_timeout}s for lost "
                        f"workers {lost_keys!r}"
                    )
                time.sleep(policy.rejoin_backoff)
        return slot

    # -- joins and revivals --------------------------------------------------------
    def _admit_joiners(self, iteration: int) -> List[int]:
        """Admit every late joiner currently waiting; return their slot indices."""
        resident = self._active_resident()
        joined: List[int] = []
        while True:
            slot = resident.admit_joiner(timeout=0.0)
            if slot is None:
                return joined
            joined.append(slot)

    def _revive_evicted(self, iteration: int, slot_index: int) -> None:
        """Bring evicted workers back after a join, from their last mirror."""
        membership = self._membership()
        for key in sorted(membership.evicted, key=repr):
            worker = self.workers[key]
            self.cluster.workers[key].rejoin()
            mirror = membership.mirrors.get(key)
            if mirror is not None:
                self._restore_worker_from_mirror(worker, mirror)
            membership.evicted.discard(key)
            membership.record("revive", slot=slot_index, worker=key)
        self._rebalance_pending = True

    # -- shard rebalancing ---------------------------------------------------------
    def _founding(self) -> Dict[int, ImageDataset]:
        """Construction-time shards, captured on first elastic use."""
        if self._founding_shards is None:
            self._founding_shards = {w.index: w.dataset for w in self.workers}
            self._shard_extras = {w.index: () for w in self.workers}
        return self._founding_shards

    def _rebalance_shards(self, iteration: int) -> None:
        """Redistribute evicted workers' founding shards across survivors.

        Targets are recomputed from the founding shards and the *current*
        evicted set (idempotent): evicted shard ``d`` goes whole to the
        survivor at position ``pos(d) mod len(survivors)`` in index order.
        Workers whose target changed are reclaimed from the pool, handed the
        concatenated dataset via ``replace_dataset`` (live FedAvg weights
        follow ``len(worker.sampler)`` automatically), and reinstalled on
        their next dispatch.
        """
        membership = self._membership()
        founding = self._founding()
        alive = sorted(w.index for w in self._alive_workers())
        if not alive:
            self._rebalance_pending = False
            return
        dead = sorted(membership.evicted, key=repr)
        targets: Dict[int, List[int]] = {index: [] for index in alive}
        for position, evicted_key in enumerate(dead):
            targets[alive[position % len(alive)]].append(evicted_key)
        moved = 0
        for worker in self.workers:
            index = worker.index
            if index not in targets:
                continue
            extras = tuple(targets[index])
            if self._shard_extras.get(index, ()) == extras:
                continue
            base = founding[index]
            if extras:
                images = np.concatenate(
                    [base.images] + [founding[d].images for d in extras]
                )
                labels = np.concatenate(
                    [base.labels] + [founding[d].labels for d in extras]
                )
                dataset = ImageDataset(
                    images=images,
                    labels=labels,
                    spec=base.spec,
                    name=f"{base.name}+{len(extras)}shard",
                    dtype=base.dtype,
                )
            else:
                dataset = base
            # Reclaim first: the pool copy (if any) is dropped and the epoch
            # bumped, so the mutated sampler/dataset reinstall cleanly.
            self.sync_worker_state([worker])
            worker.dataset = dataset
            worker.sampler.replace_dataset(dataset)
            self._shard_extras[index] = extras
            moved += 1
        if moved:
            membership.record("rebalance", detail=f"{moved} worker shard(s) changed")
        self._rebalance_pending = False

    # -- boundary mirrors ------------------------------------------------------------
    def _membership_snapshot(self) -> None:
        """Refresh the per-worker boundary mirrors (the revival/reassign source)."""
        membership = self._membership()
        resident = self._active_resident()
        keys = [
            w.index for w in self._alive_workers() if resident.installed(w.index)
        ]
        if not keys:
            return
        membership.mirrors.update(resident.pull_mirror(keys))

    # -- async-loop hooks --------------------------------------------------------------
    def _async_resume_healed(self, lost_keys: List[Any], ctx) -> None:
        """Resume healed workers; default relies on the engine's idle refill."""
