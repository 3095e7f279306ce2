"""The resident pool's in-flight ledger, and the two views trainers collect through.

Slot channels are ordered and a slot answers its frames one by one, so the
owner needs exactly one record of what is in flight: a FIFO per slot of the
frames written and not yet answered.  :class:`InflightLedger` is that record
plus the only code on the read side of the wire: :meth:`~InflightLedger.post`
writes a frame (batched ``run``, single-key ``run``, ``generate`` or boundary
op) and queues its :class:`_Entry`; one function reads a slot's next reply
into the head entry of its queue; and :meth:`~InflightLedger.wait`, the one
wait loop, owns every timeout and the routing of every fault.

:class:`PendingSteps` ("wait until all of my entries are answered") and
:class:`ResidentCollector` ("wait until any step entry is answered") are
views over the ledger, as are the backend's boundary ops ("append, wait for
mine").  The per-slot FIFO is the pool's only ordering rule: a reply queued
ahead of the one a view waits for reaches its own entry on the way, so the
views interleave freely on one slot and may wait in any order.
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict, deque
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .membership import LOST, SlotLossError
from .transport.local import InlineChannel

__all__ = ["InflightLedger", "PendingSteps", "ResidentCollector"]

#: How often a blocked wait wakes to look at the async writer's error slot
#: and the read/caller deadlines (seconds).
_HEARTBEAT = 0.05

#: ``reply`` of a ledger entry whose frame has not been answered yet.
_UNANSWERED = object()


class _Entry:
    """One frame in flight on a slot: where it went and who gets its reply.

    ``reply`` becomes the decoded reply payload once the slot answered, or
    :data:`LOST` once the slot was quarantined with the frame unanswered;
    ``sink`` (optional) is called with the same value the moment it lands,
    which is how completion order reaches the collector.  ``owner`` is the
    :class:`PendingSteps` or :class:`ResidentCollector` the frame belongs to
    (``None`` for boundary ops) and ``key`` the worker key of a collector
    step.
    """

    __slots__ = ("slot", "op", "sink", "owner", "key", "reply")

    def __init__(self, slot: int, op: str, sink=None, owner=None, key=None) -> None:
        self.slot = slot
        self.op = op
        self.sink = sink
        self.owner = owner
        self.key = key
        self.reply = _UNANSWERED

    @property
    def done(self) -> bool:
        return self.reply is not _UNANSWERED

    @property
    def lost(self) -> bool:
        return self.reply is LOST

    def deliver(self, reply) -> None:
        self.reply = reply
        if self.sink is not None:
            self.sink(reply)

    def loss(self) -> SlotLossError:
        """The error a view raises when it cannot absorb this entry's loss."""
        return SlotLossError(
            f"resident pool slot {self.slot} was lost with {self.op!r} in flight",
            slot_index=self.slot,
            op=self.op,
        )


def _closed(channel) -> bool:
    """Whether a channel's descriptor is gone (closed under the wait loop)."""
    try:
        return channel.fileno() < 0
    except (OSError, ValueError):
        return True


class InflightLedger:
    """Per-slot FIFO of unanswered frames, with the one reader and one wait loop.

    ``pool`` is the owning :class:`~repro.runtime.resident.ResidentBackend`:
    the ledger moves bytes over its transport, feeds its byte/time meters
    and hands every fault to its ``_wire_fault`` / ``_poison`` routing.
    """

    def __init__(self, pool) -> None:
        self._pool = pool
        #: slot -> frames written to its channel and not yet answered.  The
        #: slot answers in this order, so the head entry always owns the
        #: next reply on the channel.
        self._queues: Dict[int, deque] = defaultdict(deque)

    def entries(self, owner=None) -> List[_Entry]:
        """Unanswered entries in per-slot order (optionally one owner's)."""
        return [
            entry
            for queue in self._queues.values()
            for entry in queue
            if owner is None or entry.owner is owner
        ]

    def depth(self, slot_index: int) -> int:
        """Frames in flight on one slot."""
        return len(self._queues.get(slot_index, ()))

    def _fault(self, slot: int, op, message: str, reason: str, cause=None) -> None:
        """Route one wire fault through the pool: raise it when fail-stop.

        An elastic pool quarantined the slot (answering its queued entries
        :data:`LOST`) or already had, and the caller carries on.
        """
        fault = self._pool._wire_fault(slot, op, message, reason)
        if fault is not None and not isinstance(fault, SlotLossError):
            raise fault from cause

    def post(
        self, slot_index: int, op: str, payload, sink=None, owner=None, key=None, queued=False
    ) -> _Entry:
        """Write one frame to a slot and append its entry to the slot's queue.

        An *idle* slot (nothing queued) is blocked reading its channel, so
        the frame is written inline.  A slot with frames in flight may be
        blocked writing a large reply nobody reads yet, and an inline write
        larger than the channel's buffer would block against it (the
        send/send deadlock :class:`~repro.runtime.transport.Transport`
        documents): those frames go through the transport's writer thread,
        which also keeps them behind the slot's earlier queued writes; a
        failed queued write is recorded there and surfaces in :meth:`wait`.
        ``queued`` takes that path for an idle slot too, for callers that
        must not spend their own time in the write.  A survivable inline
        send failure (elastic pools) answers the entry :data:`LOST` on the
        spot; a fail-stop one poisons and raises.

        An inline slot (``serial``) runs the frame here instead, on the frame
        objects themselves: the entry is answered before this returns and
        never queued, and a failing op raises as itself.
        """
        pool = self._pool
        entry = _Entry(slot_index, op, sink, owner, key)
        transport = pool._ensure_transport()
        channel = transport.channel(slot_index)
        if isinstance(channel, InlineChannel):
            entry.deliver(channel.call(op, payload))
            return entry
        queue = self._queues[slot_index]
        data = pickle.dumps((op, payload), protocol=pickle.HIGHEST_PROTOCOL)
        pool.ipc_bytes_sent += len(data)
        pool.op_bytes_sent[op] += len(data)
        if queued or queue:
            transport.send_async(slot_index, data)
        else:
            started = time.perf_counter()
            try:
                channel.send_bytes(data)
            except OSError as exc:
                self._fault(
                    slot_index,
                    op,
                    f"resident pool slot {slot_index} is gone "
                    f"(transport send failed; in-flight op {op!r})",
                    f"transport to pool slot {slot_index} failed while sending {op!r}: {exc!r}",
                    exc,
                )
                entry.deliver(LOST)
                return entry
            pool.op_transfer_seconds[op] += time.perf_counter() - started
        queue.append(entry)
        return entry

    def _deliver_head(self, slot_index: int) -> None:
        """Read one slot's next reply and hand it to the head entry of its queue."""
        pool = self._pool
        queue = self._queues[slot_index]
        entry = queue[0]
        # Called once the channel is readable, so the figure is frame
        # transfer, not the slot's compute time (the wait absorbs that).
        started = time.perf_counter()
        data = pool._transport.channel(slot_index).recv_bytes()
        pool.op_transfer_seconds[entry.op] += time.perf_counter() - started
        pool.ipc_bytes_received += len(data)
        pool.op_bytes_received[entry.op] += len(data)
        status, payload = pickle.loads(data)
        if status != "ok":
            # The slot may have executed part of a batch before failing, and
            # other slots may still have unread replies in flight: both leave
            # state/channels inconsistent, so fail stop rather than desync.
            pool._poison(payload)
            raise RuntimeError(f"resident worker program failed:\n{payload}")
        queue.popleft()
        entry.deliver(payload)

    def wait(
        self,
        entries: Sequence[_Entry],
        first: bool = False,
        timeout: Optional[float] = None,
        wake=None,
    ) -> None:
        """Deliver replies until all (or, with ``first``, any) of ``entries`` are answered.

        The one wait loop: it blocks on the channels of the slots the
        awaited entries sit on and reads whichever becomes readable.  Every
        :data:`_HEARTBEAT` without a reply it looks at what a reply may be
        waiting behind: a failed queued write (the reply will never come),
        a caller ``timeout`` (``TimeoutError``; back-pressure, the pool
        stays healthy) and the transport's ``read_timeout`` (a dropped
        frame; the clock restarts whenever a reply lands or a slot is lost).
        A readable ``wake`` connection ends the wait early, raising nothing.
        """
        pool = self._pool
        settled = any if first else all
        caller_deadline = None if timeout is None else time.monotonic() + timeout
        read_clock = time.monotonic()
        while not settled(entry.done for entry in entries):
            transport = pool._transport
            read_timeout = transport.read_timeout
            slots = sorted({entry.slot for entry in entries if not entry.done})
            channels = {transport.channel(slot): slot for slot in slots}
            pause = _HEARTBEAT
            if caller_deadline is not None:
                pause = min(pause, max(caller_deadline - time.monotonic(), 0.0))
            waitables = list(channels) if wake is None else [*channels, wake]
            try:
                ready = connection.wait(waitables, pause)
            except (OSError, ValueError):
                # A closed channel has no descriptor to wait on; reading it
                # raises the error the routing below expects.
                ready = [channel for channel in channels if _closed(channel)]
                if not ready:
                    raise
            if wake in ready:
                return
            for channel in ready:
                slot = channels[channel]
                try:
                    self._deliver_head(slot)
                except (EOFError, OSError) as exc:
                    op = self._queues[slot][0].op
                    self._fault(
                        slot,
                        op,
                        f"resident pool slot {slot} died (in-flight op {op!r}: {exc!r})",
                        f"pool slot {slot} died mid-request ({op!r}): {exc!r}",
                        exc,
                    )
            if ready:
                read_clock = time.monotonic()
                continue
            error = transport.take_writer_error()
            if error is not None:
                slot, reason = error
                queue = self._queues.get(slot)
                op = queue[0].op if queue else None
                self._fault(slot, op, f"resident pool async send failed:\n{reason}", reason)
                read_clock = time.monotonic()
                continue
            now = time.monotonic()
            if caller_deadline is not None and now > caller_deadline:
                raise TimeoutError(f"timed out after {timeout}s waiting on pool slot(s) {slots}")
            if read_timeout is not None and now > read_clock + read_timeout:
                slot = slots[0]
                op = self._queues[slot][0].op
                reason = (
                    f"timed out after {read_timeout}s waiting for pool slot "
                    f"{slot} to answer {op!r}"
                )
                self._fault(
                    slot,
                    op,
                    f"{reason} (frame dropped, or read_timeout shorter than the "
                    "slot's compute time)",
                    reason,
                )
                read_clock = time.monotonic()

    def lose_slot(self, slot_index: int) -> None:
        """Answer every frame queued on a quarantined slot :data:`LOST`, once.

        Their replies will never arrive.
        """
        for entry in self._queues.pop(slot_index, ()):
            entry.deliver(LOST)

    def abandon(self) -> None:
        """Forget every unanswered frame: the pool is closing under them.

        Their owners would read from closed channels, so they are marked
        dead (``result()`` / ``collect_any()`` then raise).
        """
        for entry in self.entries():
            if entry.owner is not None:
                entry.owner._dead = True
        self._queues.clear()


class PendingSteps:
    """In-flight resident request batch; ``result()`` collects the slot replies.

    Returned by :meth:`ResidentBackend.start_steps` and
    :meth:`ResidentBackend.start_generation`.  The request bytes were
    already written to the slot channels at submit time, so the pool slots
    compute while the trainer does other work; ``result`` only waits for
    this batch's ledger entries, so handles may be collected in any order:
    replies queued ahead of this batch's reach their own entries on the way.
    """

    def __init__(self, backend, size: int, op: str = "run") -> None:
        self._backend = backend
        self._size = size
        #: Protocol op in flight (``"run"``/``"generate"``).
        self._op = op
        #: ``(ledger entry, result positions its reply fills)`` per slot frame.
        self._frames: List[Tuple[_Entry, List[int]]] = []
        self._values: Optional[List[Any]] = None
        #: Set when the pool died/closed before the replies were read.
        self._dead = False

    @property
    def done(self) -> bool:
        """Whether the replies were already collected."""
        return self._values is not None

    def wait(self, wake=None) -> bool:
        """Read replies until this batch is answered or ``wake`` fires; return whether it is."""
        if not self._dead:
            self._backend._ledger.wait([entry for entry, _ in self._frames], wake=wake)
        return self._dead or all(entry.done for entry, _ in self._frames)

    def result(self) -> List[Any]:
        """Wait for this batch's replies and return its results (in item order).

        Positions whose slot was quarantined (elastic pools only) come back
        as :data:`LOST`; a lost ``generate`` frame raises instead, because
        generation batches cannot be partially merged.
        """
        if self._values is not None:
            return self._values
        if self._dead:
            raise RuntimeError(
                "resident pool was closed or poisoned before these steps were "
                "collected; their results are lost"
            )
        waiting = [entry for entry, _ in self._frames if not entry.done]
        if waiting:
            self._backend._check_usable()
            self._backend._ledger.wait(waiting)
        values: List[Any] = [None] * self._size
        for entry, positions in self._frames:
            if entry.lost and self._op != "run":
                self._dead = True
                raise entry.loss()
            for index, position in enumerate(positions):
                values[position] = LOST if entry.lost else entry.reply[index]
        self._values = values
        self._frames = []
        return values


class ResidentCollector:
    """Completion-order view of the backend's in-flight ledger.

    Each :meth:`dispatch` writes one single-item ``run`` frame for its key's
    slot and :meth:`collect_any` returns whichever step is answered next.
    Per-slot ordering stays FIFO (slot channels are ordered); *across*
    slots, completion order is whatever the pool produces.  On ``serial``'s
    one inline slot each step runs at dispatch, so steps complete in the
    order they were dispatched and async runs are deterministic.  One
    collector models one in-flight set: trainers open one per run.

    The backend's boundary ops run mid-flight like any other view: their
    frame queues on the slot behind any outstanding step frames, and step
    replies that arrive while the boundary reply is awaited land in the
    ready buffer, served by a later :meth:`collect_any`.  Faults are routed
    by the ledger's wait loop:
    fail-stop pools poison (a ``TransportError`` naming the slot and op,
    and the collector refuses further use); elastic pools answer each step
    frame that was in flight on the dead slot with exactly one
    ``(key, LOST)``.  Keys that were installed there but idle get no
    result: they surface only in ``membership.pending_loss``.
    """

    def __init__(self, backend, program: str) -> None:
        self._backend = backend
        self._program = program
        #: ``(key, result)`` pairs answered (or lost) but not yet collected.
        self._ready: deque = deque()
        #: Set when the pool died/closed; every later call raises.
        self._dead = False

    @property
    def outstanding(self) -> int:
        """Dispatched steps not yet returned by :meth:`collect_any`.

        Includes step replies already received off the wire (while another
        view waited) but not yet handed to the caller.
        """
        return len(self._backend._ledger.entries(self)) + len(self._ready)

    def __len__(self) -> int:
        return self.outstanding

    def _check_open(self) -> None:
        if self._dead:
            raise RuntimeError(
                "resident collector is closed (pool failure or backend close); "
                "open a new collector to continue"
            )
        self._backend._check_usable()

    def dispatch(self, key, state_supplier: Callable[[], Any], payload) -> None:
        """Start one resident step for ``key`` (installs state on first use)."""
        self._check_open()
        backend = self._backend
        if any(entry.key == key for entry in backend._ledger.entries(self)):
            raise RuntimeError(f"key {key!r} already has a step in flight")
        backend._post_run(
            backend._slot_for(key),
            [backend._run_item(self._program, key, state_supplier, payload)],
            sink=lambda reply: self._ready.append((key, LOST if reply is LOST else reply[0])),
            owner=self,
            key=key,
        )

    def collect_any(self, timeout: Optional[float] = None):
        """Block until any outstanding step finishes; return ``(key, result)``.

        Faults surface through the ledger's wait loop (never a hang); an
        explicit ``timeout`` raises ``TimeoutError`` without poisoning.
        """
        self._check_open()
        if not self._ready:
            ledger = self._backend._ledger
            entries = ledger.entries(self)
            if not entries:
                raise RuntimeError("collect_any called with no outstanding steps")
            ledger.wait(entries, first=True, timeout=timeout)
        return self._ready.popleft()

    def drain(self) -> int:
        """Collect and discard every outstanding step; return the count."""
        discarded = 0
        while self.outstanding:
            self.collect_any()
            discarded += 1
        return discarded

    def close(self) -> None:
        """Drain outstanding work (when the pool is healthy) and detach.

        The drained steps *did* run in the pool (resident state reflects
        them) — only their results are dropped, mirroring ``drain_inflight``.
        """
        if not self._dead and self._backend._broken_reason is None:
            self.drain()
        self._dead = True
        if self._backend._collector is self:
            self._backend._collector = None
