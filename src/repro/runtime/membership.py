"""Elastic pool membership: policies, state and events for slot churn.

The resident pool (:mod:`repro.runtime.resident`) is fail-stop by default —
any wire fault poisons the whole pool.  This module holds everything the
*elastic* alternative needs:

* :class:`MembershipPolicy` — the degradation policy threaded through
  ``TrainingConfig``: what to do when a slot dies (``on_slot_loss``), how far
  the pool may shrink (``min_workers``) and how eagerly lost capacity is
  re-sought (``rejoin_backoff`` / ``rejoin_timeout``).
* :class:`PoolMembership` — the membership state the backend writes as it
  quarantines dead slots and remaps keys: quarantined slots, the key→slot
  assignment overlay, pending losses and the event/counter log surfaced
  through ``TrainingHistory`` and the meters.  The trainer side (evictions,
  mirrors, shard rebalancing) is :mod:`repro.core.elastic`.
* :class:`SlotLossError` — the *recoverable* sibling of
  :class:`~repro.runtime.transport.TransportError`: raised instead of
  poisoning when a slot dies under an elastic policy, carrying the worker
  keys whose resident state died with the slot.
* :data:`LOST` — sentinel standing in for the result of a step whose slot
  died before replying; the trainers treat it exactly like a crash (the
  un-merged contribution is discarded).

The fail-stop default runs **zero** code from this module: a backend without
an elastic policy never constructs a :class:`PoolMembership`, keeping
``on_slot_loss="fail_stop"`` bitwise-identical to the pre-membership pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from .transport import TransportError

__all__ = [
    "ON_SLOT_LOSS_POLICIES",
    "LOST",
    "MembershipPolicy",
    "MembershipEvent",
    "PoolMembership",
    "SlotLossError",
]

#: Valid ``on_slot_loss`` policy names, in documentation order.
ON_SLOT_LOSS_POLICIES = ("fail_stop", "degrade", "wait")


class _Lost:
    """Singleton sentinel for a step result lost with its slot."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<LOST>"


#: The result of a dispatched step whose slot died before replying.  Trainers
#: treat it like a crash: the contribution is discarded un-merged.
LOST = _Lost()


class SlotLossError(TransportError):
    """A slot died under an elastic policy; the pool itself survives.

    Unlike a plain :class:`TransportError` (which means the pool was
    poisoned), the backend has already quarantined the dead slot and remains
    usable — the caller is expected to hand the lost worker keys to the
    trainer's recovery path instead of tearing everything down.
    """

    def __init__(
        self,
        message: str,
        slot_index: Optional[int] = None,
        op: Optional[str] = None,
        lost_keys: Optional[List[Any]] = None,
    ) -> None:
        super().__init__(message, slot_index=slot_index, op=op)
        #: Worker keys whose resident state lived on the dead slot.
        self.lost_keys = list(lost_keys or ())
        #: Replies of the slots that did answer (``pull_state``'s survivors).
        self.replies: Dict[Any, Any] = {}


@dataclass(frozen=True)
class MembershipPolicy:
    """Degradation policy for slot loss, threaded through ``TrainingConfig``.

    ``on_slot_loss`` selects what happens when a pool slot dies mid-run:

    * ``"fail_stop"`` — today's behavior: poison the pool, raise
      :class:`~repro.runtime.transport.TransportError`.  Bitwise-identical to
      the pre-membership runtime (no elastic code runs at all).
    * ``"degrade"`` — quarantine the slot and **evict** its workers like
      crashes (un-merged contributions discarded); their shards are
      redistributed across survivors at the next aggregation boundary.  A
      late joiner revives evicted workers from their last merged mirror.
    * ``"wait"`` — quarantine the slot but keep its workers: block (with
      ``rejoin_backoff``-spaced reconnect attempts, up to
      ``rejoin_timeout``) for replacement capacity, then **reassign** the
      lost workers onto surviving/replacement slots, reinstalled from their
      last merged mirror.
    """

    on_slot_loss: str = "fail_stop"
    #: Fail the run if fewer than this many workers remain alive.
    min_workers: int = 1
    #: Seconds between reconnect/respawn attempts while healing the pool.
    rejoin_backoff: float = 0.25
    #: Max seconds the ``"wait"`` policy blocks for replacement capacity.
    rejoin_timeout: float = 10.0

    def __post_init__(self) -> None:
        """Validate the policy fields."""
        if self.on_slot_loss not in ON_SLOT_LOSS_POLICIES:
            raise ValueError(
                f"on_slot_loss must be one of {ON_SLOT_LOSS_POLICIES}, "
                f"got {self.on_slot_loss!r}"
            )
        # Written as ``not value > bound`` so NaN is rejected too.
        if not self.min_workers >= 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if not self.rejoin_backoff > 0:
            raise ValueError(f"rejoin_backoff must be > 0, got {self.rejoin_backoff}")
        if not self.rejoin_timeout > 0:
            raise ValueError(f"rejoin_timeout must be > 0, got {self.rejoin_timeout}")

    @property
    def elastic(self) -> bool:
        """Whether slot loss is survivable (anything but ``fail_stop``)."""
        return self.on_slot_loss != "fail_stop"


@dataclass
class MembershipEvent:
    """One membership transition, mirrored into ``TrainingHistory``."""

    #: Event kind: ``slot_loss``, ``join``, ``evict``, ``reassign``,
    #: ``revive``, ``rebalance`` or ``reconnect_attempt``.
    kind: str
    #: Pool slot index involved (``None`` when not slot-specific).
    slot: Optional[int] = None
    #: Worker key involved (``None`` when not worker-specific).
    worker: Optional[Any] = None
    #: Free-form context (failure reason, source slot, ...).
    detail: str = ""


@dataclass
class PoolMembership:
    """Mutable membership state of one pool, written by the backend.

    The backend mutates :attr:`quarantined` / :attr:`assignments` /
    :attr:`pending_loss` when a wire fault is survivable; the trainer's
    :class:`~repro.core.elastic.MembershipController` consumes
    :attr:`pending_loss`.  Everything observable funnels through
    :meth:`record`, which feeds both the event list (surfaced in
    ``TrainingHistory``) and the counters (surfaced next to the transport
    meters).
    """

    policy: MembershipPolicy
    #: Slot indices removed from service (their channels are closed).
    quarantined: Set[int] = field(default_factory=set)
    #: Key -> slot overlay on the hash placement; entries are only added for
    #: elastic pools and never move while their slot stays alive (resident
    #: state cannot migrate without a reinstall).
    assignments: Dict[Any, int] = field(default_factory=dict)
    #: Worker keys whose resident state died with a slot, not yet handled by
    #: the trainer's recovery path.
    pending_loss: Set[Any] = field(default_factory=set)
    #: Ordered log of membership transitions.
    events: List[MembershipEvent] = field(default_factory=list)
    #: Event counts by kind (``slot_loss``, ``join``, ``evict``, ...).
    counters: Dict[str, int] = field(default_factory=dict)

    def record(
        self,
        kind: str,
        slot: Optional[int] = None,
        worker: Optional[Any] = None,
        detail: str = "",
    ) -> MembershipEvent:
        """Append one membership event and bump its counter."""
        event = MembershipEvent(kind=kind, slot=slot, worker=worker, detail=detail)
        self.events.append(event)
        self.counters[kind] = self.counters.get(kind, 0) + 1
        return event

    def take_pending_loss(self) -> List[Any]:
        """Hand the un-handled lost worker keys to the trainer (sorted, cleared)."""
        lost = sorted(self.pending_loss, key=repr)
        self.pending_loss.clear()
        return lost

    def counters_snapshot(self) -> Dict[str, int]:
        """Copy of the event counters (for meters/artifacts)."""
        return dict(self.counters)
