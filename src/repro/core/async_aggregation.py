"""Bounded-staleness scheduling for asynchronous aggregation.

The synchronous trainers run a rigid begin → dispatch → merge → finish
sequence: every global update waits for *all* participants, so one straggler
stalls the fleet.  Under ``TrainingConfig(aggregation="async")`` both
trainers instead run an event-driven loop over the runtime's
completion-order collection API
(:meth:`repro.runtime.ResidentBackend.open_collector`): worker contributions
arrive in completion order, are *buffered*, and are folded into the model in
whole-buffer flushes — each flush is one global update.

:class:`BoundedStalenessScheduler` is the bookkeeping between those two
halves, and the enforcement point for the staleness bound:

* ``note_dispatch(key)`` marks the global update count a worker's unit of
  work was dispatched against (its *read point*);
* ``note_completion(key, payload)`` moves the worker's finished unit into
  the buffer as a :class:`Contribution`;
* ``gate_open`` answers whether applying the buffer *now* is safe: one more
  update must not push any still-in-flight worker past ``max_staleness``
  (``updates + 1 - mark <= max_staleness`` for every in-flight mark).  When
  the gate is closed the trainer simply keeps collecting — it never
  re-dispatches a buffered worker, so the effective back-pressure is
  *blocking dispatch*: fast workers wait exactly when the bound binds, and
  the straggler whose completion re-opens the gate is always in flight,
  which makes the discipline deadlock-free;
* ``take_buffered()`` + ``note_applied()`` consume the buffer as one update.

Induction gives the bound: a contribution enters the buffer with age
``updates - mark <= max_staleness`` (its worker was protected by the gate
while in flight) and the whole buffer is applied in the *same* update, so
every applied contribution has age ``<= max_staleness`` — the quantity
recorded per worker in :attr:`TrainingHistory.worker_staleness` and pinned
by the async regression tests.

Staleness also decides the *weight* of a contribution:
:func:`staleness_weights` decays each contribution by ``1 / (1 + age)`` and
normalises across the flush, so a fresh flush reproduces the synchronous
uniform ``1/n`` weighting exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["BoundedStalenessScheduler", "Contribution", "staleness_weights"]


@dataclass
class Contribution:
    """One worker's finished unit of work, buffered until the next flush."""

    #: Worker index the unit ran on.
    key: int
    #: Global update count the unit was dispatched against (read point).
    dispatched_at: int
    #: Trainer-specific payload (feedback + batch for MD-GAN, local model
    #: parameters for FL-GAN) plus whatever bookkeeping the flush needs.
    payload: Any


@dataclass
class BoundedStalenessScheduler:
    """Tracks in-flight and buffered work against the staleness bound."""

    max_staleness: int
    #: Global updates applied so far (MD-GAN: generator updates; FL-GAN:
    #: federated merges).
    updates: int = 0
    _in_flight: Dict[int, int] = field(default_factory=dict)
    _buffer: List[Contribution] = field(default_factory=list)

    # -- bookkeeping -----------------------------------------------------------
    def note_dispatch(self, key: int, mark: Optional[int] = None) -> None:
        """Mark ``key`` in flight; ``mark`` backdates the read point.

        The default read point is the current update count (the unit reads
        the model as of *now*).  A pipelined dispatch hands a unit that was
        pre-generated earlier and passes the update count it was generated
        against — the staleness of the eventual contribution is measured
        from that mark, so pre-generation cannot hide age from the bound.
        """
        if key in self._in_flight:
            raise RuntimeError(f"worker {key} is already in flight")
        if mark is None:
            mark = self.updates
        elif not 0 <= mark <= self.updates:
            raise ValueError(
                f"dispatch mark {mark} outside [0, {self.updates}] for worker {key}"
            )
        self._in_flight[key] = mark

    def note_completion(self, key: int, payload: Any) -> Contribution:
        """Move ``key``'s finished unit from in-flight to the buffer."""
        mark = self._in_flight.pop(key)
        contribution = Contribution(key=key, dispatched_at=mark, payload=payload)
        self._buffer.append(contribution)
        return contribution

    def discard(self, key: int) -> None:
        """Drop ``key``'s in-flight unit (crashed worker; nothing to apply)."""
        self._in_flight.pop(key, None)

    def tracked_keys(self) -> set:
        """Keys currently in flight or buffered — i.e. not idle.

        An idle worker is eligible for (re-)dispatch; a buffered worker is
        *not* until its contribution has been applied, which is what makes
        the back-pressure "blocking dispatch".
        """
        return set(self._in_flight) | {c.key for c in self._buffer}

    # -- the gate --------------------------------------------------------------
    @property
    def gate_open(self) -> bool:
        """Whether one more update keeps every in-flight worker within bound."""
        return all(
            self.updates + 1 - mark <= self.max_staleness
            for mark in self._in_flight.values()
        )

    # -- flushing --------------------------------------------------------------
    @property
    def buffered(self) -> int:
        """Contributions waiting for the next flush."""
        return len(self._buffer)

    @property
    def in_flight(self) -> int:
        """Workers with a dispatched, unfinished unit."""
        return len(self._in_flight)

    def take_buffered(self) -> List[Contribution]:
        """Hand the whole buffer to the caller (who must apply it as ONE update)."""
        contributions, self._buffer = self._buffer, []
        return contributions

    def staleness_of(self, contribution: Contribution) -> int:
        """Age of a contribution, in updates, if applied right now."""
        return self.updates - contribution.dispatched_at

    def note_applied(self) -> None:
        """Count one applied flush; assert no in-flight worker crossed the bound."""
        self.updates += 1
        overdue = {
            key: self.updates - mark
            for key, mark in self._in_flight.items()
            if self.updates - mark > self.max_staleness
        }
        if overdue:  # pragma: no cover - gate violation is a programming error
            raise RuntimeError(
                f"staleness bound {self.max_staleness} violated for {overdue}; "
                "the gate must be consulted before applying"
            )


def staleness_weights(stalenesses: List[int]) -> List[float]:
    """Normalised ``1 / (1 + age)`` contribution weights for one flush.

    All-fresh flushes (every age 0) reproduce the synchronous uniform
    ``1/n`` average; stale contributions are down-weighted relative to
    fresher ones in the same flush.
    """
    raw = [1.0 / (1.0 + float(s)) for s in stalenesses]
    total = sum(raw)
    return [w / total for w in raw]
