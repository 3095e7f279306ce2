"""Resident-worker pool: worker state lives in the pool (delta shipping).

Shipping each worker's *entire* state — model(s), optimizer moments, sampler
(including the dataset shard) and RNG — to a pool on every global iteration,
in both directions, makes the IPC cost grow with model *and shard* size and
swamps the parallel speedup the paper's embarrassingly parallel per-worker
phase should deliver.

The resident protocol instead makes worker state **resident**: each pool
slot holds the full state of the workers assigned to it (sticky
``worker index -> slot`` affinity via :func:`stable_key_hash`, so the
assignment is reproducible across interpreter runs) across iterations, so the
trainer ships only the per-iteration *inputs* (generated batches for MD-GAN,
nothing at all for FL-GAN local epochs) and receives only the per-iteration
*outputs* (losses and error feedback).

Because trainers sometimes mutate worker state outside the pool (the SWAP
gossip, FedAvg broadcasts, crash handling, ``replace_dataset``), the protocol
carries an explicit **state-epoch counter** per worker:

* while a worker's resident copy is current, the pool is authoritative and
  the trainer's local objects are stale;
* boundary mutations that touch only model parameters go through
  :meth:`ResidentBackend.pull_params` / :meth:`ResidentBackend.push_params`,
  which read/write flat parameter vectors in place without ever shipping the
  sampler or optimizer state;
* any other mutation must first *reclaim* authority with
  :meth:`ResidentBackend.pull_state` — "mirror, then drop": it returns the
  program's mirror payload (the same one :meth:`ResidentBackend.pull_mirror`
  serves, so the immutable dataset shard never re-crosses the wire), drops
  the resident copy and bumps the worker's epoch.  The next step dispatch
  detects the epoch mismatch and re-installs fresh state from the trainer.

Pool slots double-check the epoch of every step they execute and fail
loudly on a mismatch, so any state handed through the protocol can never be
silently trained on while stale.  (Mutations the protocol is never told
about — e.g. editing a worker's sampler without first reclaiming it via
``pull_state``/``sync_worker_state`` — are outside its reach: announce them,
as the trainer docs require.)  All numerics are bitwise identical to the
``serial`` reference: the
pool runs the exact same step functions on state that round-tripped through
pickle (which preserves float bits and object-graph sharing), and results
merge in worker-index order exactly like every other backend.

This module is the **owner side** of the pool only.  The slot serving loop
(:mod:`repro.runtime.slot`) and the program registry
(:mod:`repro.runtime.programs`) are sibling modules whose public names are
re-exported here; the bytes move over one
:class:`~repro.runtime.transport.SlotChannel` per slot (``"pipe"`` child
processes by default, ``"tcp"`` sockets to loopback workers or to
``python -m repro.runtime.worker_host --connect HOST:PORT`` elsewhere).
``serial`` is this same backend over one
inline slot, whose frame handler runs in the caller on the frame objects
themselves (no pickle, no copy), so its residents are the trainer's own
worker objects.

Every frame this backend writes to a slot — a batched ``run``
(:meth:`ResidentBackend.start_steps`), a single-key ``run``
(:meth:`ResidentCollector.dispatch`), a ``generate``
(:meth:`ResidentBackend.start_generation`) or a boundary op
(``pull_params`` / ``push_params`` / ``pull_state`` / ``pull_mirror``) — goes
through one in-flight ledger (:mod:`repro.runtime.ledger`), whose single wait
loop reads every reply and routes every fault: a wire failure either poisons
the pool fail-stop (:class:`~repro.runtime.transport.TransportError` naming
the slot and op) or, under an elastic membership policy, quarantines the slot
and answers its queued frames :data:`LOST`.  The ledger's per-slot FIFO is the
only ordering rule: any view may wait first, and a boundary op posted behind
in-flight steps answers after them.

The backend also meters its own IPC: :attr:`ResidentBackend.ipc_bytes_sent`
and :attr:`ResidentBackend.ipc_bytes_received` count the pickled bytes that
actually crossed the transport (broken down per protocol op in
:attr:`ResidentBackend.op_bytes_sent` / :attr:`ResidentBackend.op_bytes_received`,
with wall-clock write/read times in :attr:`ResidentBackend.op_transfer_seconds`
so the ``LinkModel`` cost model can be checked against measured traffic),
:attr:`ResidentBackend.install_count` counts shipped install payloads (the
warm-reuse benchmark asserts a second ``train()`` ships none).  An install is
the payload object itself, pickled inside the ``run`` / ``generate`` frame
that first needs it, so its bytes are metered under that op like any other.
"""

from __future__ import annotations

import pickle
import zlib
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import default_max_workers
from .ledger import InflightLedger, PendingSteps, ResidentCollector
from .membership import LOST, MembershipPolicy, PoolMembership, SlotLossError
from .programs import ResidentProgram, get_program, register_program
from .slot import serve_slot
from .transport import (
    TRANSPORT_DEFAULT,
    Transport,
    TransportError,
    create_transport,
)
from .transport.local import InlineTransport

__all__ = [
    "ResidentBackend",
    "ResidentCollector",
    "ResidentProgram",
    "PendingSteps",
    "TransportError",
    "SlotLossError",
    "LOST",
    "register_program",
    "get_program",
    "serve_slot",
    "stable_key_hash",
]


def stable_key_hash(key) -> int:
    """Deterministic hash for worker keys, stable across interpreter runs.

    The builtin ``hash`` is salted by ``PYTHONHASHSEED`` for ``str`` (and any
    tuple containing one), which would make worker->slot affinity — and every
    IPC/byte-meter figure keyed on it — irreproducible between runs.  Integer
    keys map to themselves (preserving the documented ``slot = index mod pool
    size`` assignment); other keys hash their ``repr`` with CRC-32, so any
    key with a stable ``repr`` gets a stable slot.
    """
    if isinstance(key, (int, np.integer)):
        return int(key)
    return zlib.crc32(repr(key).encode("utf-8"))


class ResidentBackend:
    """Persistent pool with resident per-worker state.

    Every execution backend is one of these; trainers drive the protocol
    below.  The pool is a long-lived serving layer: its owner (normally the
    trainer that built it) decides when it dies — ``close()`` or the context-manager
    exit — and a ``train()`` call neither owns nor tears it down, so warm
    resident state survives across ``train()`` calls and re-entry ships no
    install payloads as long as the state epochs still match.
    """

    #: Backend name (one of :data:`~repro.runtime.backend.BACKENDS`).
    name = "resident"
    #: Always ``True``: every backend is this protocol.  Kept for readers
    #: that ask whether a backend carries the pool's meters.
    supports_resident = True

    def __init__(
        self,
        max_workers: Optional[int] = None,
        transport: Optional[Union[str, Transport]] = None,
        transport_address: Optional[str] = None,
        connect_timeout: float = 30.0,
        read_timeout: Optional[float] = None,
        membership_policy: Optional[MembershipPolicy] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or default_max_workers()
        #: Elastic membership policy (:class:`MembershipPolicy`) or ``None``
        #: for the fail-stop default.  ``None`` (or a ``fail_stop`` policy)
        #: runs zero elastic code: any wire fault poisons the pool exactly as
        #: before the membership layer existed.
        self.membership_policy = membership_policy
        #: Transport carrying the slot channels: a name (``"pipe"``/
        #: ``"tcp"``), a pre-built :class:`~repro.runtime.transport.Transport`
        #: instance (tests inject fault wrappers this way), or ``None`` for
        #: :data:`~repro.runtime.transport.TRANSPORT_DEFAULT` (``"pipe"``).
        self.transport = transport
        #: ``"HOST:PORT"`` for the ``tcp`` transport's external mode
        #: (``None`` = loopback with spawned workers); ignored by ``pipe``.
        self.transport_address = transport_address
        #: Whether the pipelined MD-GAN loop uses :meth:`start_generation`.  It
        #: ships no forward snapshot, so ``serial``'s inline slot would replay
        #: each forward.
        self.supports_resident_generation = not isinstance(transport, InlineTransport)
        #: Seconds to wait for worker connections when opening a ``tcp`` pool.
        self.connect_timeout = connect_timeout
        #: Max seconds to wait for any single slot reply (``None`` = forever);
        #: how a dropped/truncated frame surfaces as an error, not a hang.
        self.read_timeout = read_timeout
        self._transport: Optional[Transport] = None
        #: Trainer-side truth: current state epoch per worker key.
        self._epochs: Dict[Any, int] = {}
        #: Epoch of the copy installed in the pool, per worker key.
        self._installed: Dict[Any, int] = {}
        #: Slots holding a copy of each resident generator (see
        #: :meth:`start_generation`); only structure installs are tracked.
        self._generator_slots: Dict[Any, set] = {}
        #: Per ``(generator key, slot)``: the handle version whose parameter
        #: vector was last shipped.  Requests whose versioned
        #: :class:`~repro.runtime.pipeline.GeneratorHandle` matches ship no
        #: parameter payload at all (the slot copy is already bit-identical);
        #: unversioned handles never populate this and re-ship every time.
        self._generator_versions: Dict[Tuple[Any, int], int] = {}
        #: Set when a pool operation failed; the resident state is then lost
        #: and every later protocol call refuses to run (fail-stop).
        self._broken_reason: Optional[str] = None
        #: Pickled bytes shipped to / received from the pool (IPC meter).
        self.ipc_bytes_sent = 0
        self.ipc_bytes_received = 0
        #: The same bytes broken down per protocol op (``"run"``,
        #: ``"generate"``, ``"pull_params"``, ...), plus the wall-clock
        #: seconds the trainer thread spent writing/reading each op's frames.
        #: ``experiments/traffic_check.py`` compares these against the
        #: ``LinkModel`` cost model's predictions.
        self.op_bytes_sent: Dict[str, int] = defaultdict(int)
        self.op_bytes_received: Dict[str, int] = defaultdict(int)
        self.op_transfer_seconds: Dict[str, float] = defaultdict(float)
        #: Always 0 (installs ride the slot channels); the perf harness reads it.
        self.shm_bytes_sent = 0
        #: Number of install payloads shipped (worker state or generator
        #: copies); a warm re-entry ships none.
        self.install_count = 0
        #: Bytes of generator parameter vectors shipped with ``generate``
        #: requests.  The serving layer's param-cache regression test pins
        #: that repeat requests against an unchanged generator add zero.
        self.param_bytes_sent = 0
        #: Every frame written to a slot and not yet answered; the only
        #: reader of the slot channels (:mod:`repro.runtime.ledger`).
        self._ledger = InflightLedger(self)
        #: The open :class:`ResidentCollector`, if any (drained by
        #: :meth:`drain_inflight`).
        self._collector: Optional[ResidentCollector] = None
        #: Live :class:`PoolMembership` state, built lazily on first use when
        #: an elastic :attr:`membership_policy` is set; ``None`` otherwise.
        self._membership: Optional[PoolMembership] = None

    # -- pool lifecycle ---------------------------------------------------------
    def _ensure_transport(self) -> Transport:
        """Open the pool's transport (and its slot channels) on first use.

        A ``transport`` given as a name (or left ``None`` — the default) is
        built via the transport registry with this backend's address/timeout
        settings; a pre-built :class:`Transport` instance is adopted as-is,
        which is how tests inject fault-wrapped channels and how callers
        hand over a ``tcp`` transport that is already listening for external
        worker hosts.
        """
        if self._transport is None:
            transport = self.transport
            if transport is None or isinstance(transport, str):
                transport = create_transport(
                    transport or TRANSPORT_DEFAULT,
                    address=self.transport_address,
                    connect_timeout=self.connect_timeout,
                    read_timeout=self.read_timeout,
                )
            self._transport = transport
        if not self._transport.started:
            if self._elastic() is not None and hasattr(self._transport, "accept_joiners"):
                # Keep the tcp listener open past the founding accepts so
                # late joiners can attach through the versioned re-handshake.
                self._transport.accept_joiners = True
            self._transport.open(self.max_workers)
        return self._transport

    def _poison(self, reason: str) -> None:
        """Fail-stop after a pool error: discard the pool and refuse to go on.

        A failed or half-executed request leaves resident state (and, with
        multiple in-flight slot replies, the request/reply pipes) in an
        unknown condition; some residents may hold steps the trainer never
        merged.  Continuing — or re-installing from the trainer's stale
        copies — would silently diverge from the serial reference, so the
        backend tears the pool down and every later protocol call raises.
        """
        self._broken_reason = reason
        self.close()

    def _check_usable(self) -> None:
        if self._broken_reason is not None:
            raise RuntimeError(
                "resident pool previously failed and its worker state was lost; "
                "rebuild the trainer/backend to continue. Original failure:\n"
                f"{self._broken_reason}"
            )

    # -- elastic membership -----------------------------------------------------
    def _elastic(self) -> Optional[PoolMembership]:
        """The live membership state, or ``None`` under the fail-stop default."""
        if self._membership is None:
            policy = self.membership_policy
            if policy is not None and policy.elastic:
                self._membership = PoolMembership(policy=policy)
        return self._membership

    #: Public alias for the live membership state (``None`` if fail-stop).
    membership = property(_elastic)

    def membership_counters(self) -> Dict[str, int]:
        """Membership-event counts (empty for fail-stop pools) for the meters."""
        membership = self._elastic()
        return {} if membership is None else membership.counters_snapshot()

    def _alive_slots(self) -> List[int]:
        """Slot indices still in service (all of them for fail-stop pools)."""
        transport = self._ensure_transport()
        membership = self._elastic()
        if membership is None:
            return list(range(transport.num_slots))
        return [
            index for index in range(transport.num_slots) if index not in membership.quarantined
        ]

    def alive_slot_count(self) -> int:
        """Number of slots still in service."""
        return len(self._alive_slots())

    def idle_slot_count(self) -> int:
        """Number of slots in service with no frame in flight."""
        return sum(not self._ledger.depth(slot) for slot in self._alive_slots())

    def quarantine_slot(self, slot_index: int, reason: str = "") -> List[Any]:
        """Remove one dead slot from service; return the worker keys lost with it.

        Elastic pools call this instead of :meth:`_poison`: the slot's channel
        is closed best-effort (a :class:`TransportError`/``OSError`` during
        this cleanup must never mask the loss being handled — same discipline
        as the trainers' ``_cleanup_after_failure``), every resident installed
        there is forgotten and invalidated (the trainer's copy becomes
        authoritative again), and the lost keys are queued in
        ``membership.pending_loss`` for the trainer's recovery path.

        Every frame still queued on the slot is answered :data:`LOST`, once;
        nothing else is.  A lost key with no frame in flight (an *idle* key)
        reaches the trainer only through ``membership.pending_loss``, so no
        made-up answer can alias that key's next dispatch.
        """
        membership = self._elastic()
        if membership is None:
            raise RuntimeError("quarantine_slot requires an elastic membership policy")
        if slot_index in membership.quarantined:
            return []
        # Keys resolve against the *pre-quarantine* placement.
        lost = [key for key in list(self._installed) if self._slot_for(key) == slot_index]
        membership.quarantined.add(slot_index)
        membership.record("slot_loss", slot=slot_index, detail=reason)
        for key in lost:
            self._installed.pop(key, None)
            self.invalidate(key)
            membership.pending_loss.add(key)
        for slots in self._generator_slots.values():
            slots.discard(slot_index)
        for pair in [p for p in self._generator_versions if p[1] == slot_index]:
            self._generator_versions.pop(pair, None)
        transport = self._ensure_transport()
        try:
            transport.channel(slot_index).close()
        except Exception:
            pass
        self._ledger.lose_slot(slot_index)
        return lost

    def _wire_fault(
        self,
        slot_index: Optional[int],
        op: Optional[str],
        message: str,
        reason: str,
    ) -> Optional[TransportError]:
        """Route one wire fault: poison (fail-stop) or quarantine (elastic).

        Returns the exception a fail-stop caller must raise — a plain
        :class:`TransportError` after poisoning — or a :class:`SlotLossError`
        after a survivable quarantine, or ``None`` when the fault refers to
        an already-quarantined slot and is stale news to ignore.
        """
        membership = self._elastic()
        if membership is not None and slot_index is not None:
            if slot_index in membership.quarantined:
                return None
            if len(self._alive_slots()) > 1:
                lost = self.quarantine_slot(slot_index, reason=reason)
                return SlotLossError(message, slot_index=slot_index, op=op, lost_keys=lost)
        self._poison(reason)
        return TransportError(message, slot_index=slot_index, op=op)

    def admit_joiner(self, timeout: float = 0.0) -> Optional[int]:
        """Admit one late joiner waiting on the transport, if any.

        Returns the new slot index (recorded as a ``join`` event) or ``None``.
        Fail-stop pools never admit joiners — their transports close the
        listen path at open time.
        """
        membership = self._elastic()
        if membership is None:
            return None
        transport = self._ensure_transport()
        slot_index = transport.poll_joiner(timeout)
        if slot_index is not None:
            self._joined(slot_index)
        return slot_index

    def _joined(self, slot_index: int) -> None:
        """Record a join and point keys stranded on quarantined slots at the new slot.

        Their installs were popped at quarantine time, so the next dispatch
        reinstalls them (from whatever state the trainer's recovery restored)
        on the new slot.
        """
        membership = self._elastic()
        membership.record("join", slot=slot_index)
        for key, slot in list(membership.assignments.items()):
            if slot in membership.quarantined:
                membership.assignments[key] = slot_index
                membership.record(
                    "reassign", slot=slot_index, worker=key, detail=f"from slot {slot}"
                )

    def open_replacement_slot(self) -> Optional[int]:
        """Build one replacement slot (respawn/accept), if the transport can.

        Used by the ``wait`` policy to heal lost capacity; returns the new
        slot index, or ``None`` when the transport has no local join path or
        the attempt failed (the caller backs off and retries).
        """
        membership = self._elastic()
        if membership is None:
            return None
        transport = self._ensure_transport()
        if not transport.supports_join:
            return None
        membership.record("reconnect_attempt")
        try:
            slot_index = transport.open_slot()
        except TransportError:
            return None
        self._joined(slot_index)
        return slot_index

    def close(self) -> None:
        """Shut the pool down; resident state is discarded (trainer re-installs)."""
        if self._collector is not None:
            # Its queued replies die with the pool; later use must raise.
            self._collector._dead = True
            self._collector = None
        self._ledger.abandon()
        if self._transport is not None:
            transport = self._transport
            # Stop the async writer first: its queued sends either land
            # (slots still drain their channels until they see the close
            # message) or fail against an already-dead slot, which is
            # irrelevant mid-teardown.
            transport.stop_writer()
            close_frame = pickle.dumps(("close", None), protocol=pickle.HIGHEST_PROTOCOL)
            for slot_index in range(transport.num_slots):
                try:
                    transport.channel(slot_index).send_bytes(close_frame)
                except (TransportError, OSError):
                    pass
            transport.close()
            self._transport = None
        self._installed.clear()
        self._generator_slots.clear()
        self._generator_versions.clear()

    def __enter__(self) -> "ResidentBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- placement --------------------------------------------------------------
    def _slot_for(self, key) -> int:
        membership = self._elastic()
        if membership is None:
            return stable_key_hash(key) % self._ensure_transport().num_slots
        slot = membership.assignments.get(key)
        if slot is not None and slot not in membership.quarantined:
            return slot
        # Hash placement against the *founding* pool size (late-join slots
        # never shift existing hash targets), remapped deterministically onto
        # the surviving slots when the primary is quarantined.  The overlay
        # entry pins the choice: resident state cannot migrate between slots
        # without a reinstall, so an assignment only ever changes when its
        # slot dies (the quarantine pops the install, forcing that reinstall).
        num_slots = self._ensure_transport().num_slots
        primary = stable_key_hash(key) % min(self.max_workers, num_slots)
        if primary in membership.quarantined:
            alive = self._alive_slots()
            if not alive:
                raise TransportError("resident pool has no surviving slots")
            primary = alive[stable_key_hash(key) % len(alive)]
        if slot is not None and primary != slot:
            membership.record("reassign", slot=primary, worker=key, detail=f"from slot {slot}")
        membership.assignments[key] = primary
        return primary

    # -- guards -----------------------------------------------------------------
    def _require_installed(self, keys: Iterable, op: str) -> None:
        missing = [key for key in keys if not self.installed(key)]
        if missing:
            raise ValueError(f"{op} requires installed resident state; missing for {missing}")

    # -- invalidation protocol --------------------------------------------------
    def installed(self, key) -> bool:
        """Whether the pool holds a *current* resident copy for ``key``."""
        return self._installed.get(key, -1) == self._epochs.get(key, 0)

    def invalidate(self, key) -> None:
        """Mark trainer-side state authoritative for ``key``.

        Bumps the state epoch, so the next step dispatch ships a fresh
        install and any lingering pool copy is rejected as stale.
        """
        self._epochs[key] = self._epochs.get(key, 0) + 1

    # -- resident protocol ------------------------------------------------------
    def open_collector(self, program: str) -> "ResidentCollector":
        """Open a :class:`ResidentCollector` for as-completed step collection.

        ``program`` names the registered :class:`ResidentProgram` every
        dispatched step runs.  Only one collector is live at a time;
        reopening detaches the previous one.
        """
        self._check_usable()
        if self._collector is not None:
            self._collector._dead = True
        self._collector = ResidentCollector(self, program)
        return self._collector

    def _run_item(self, program: str, key, state_supplier: Callable[[], Any], payload) -> tuple:
        """The ``run`` wire item for one worker key, install included when due.

        ``state_supplier`` is invoked (trainer-side, at dispatch) only when
        the pool holds no current copy for ``key`` — first participation,
        after an invalidation, or after a pool restart — and its return value
        is shipped as the install payload.
        """
        epoch = self._epochs.setdefault(key, 0)
        install = None
        if self._installed.get(key) != epoch:
            install = state_supplier()
            if install is not None:
                self.install_count += 1
        return (key, program, epoch, install, payload)

    def _post_run(self, slot_index: int, items: List[tuple], **entry_fields):
        """Post one ``run`` frame of :meth:`_run_item` items to a slot.

        The installs it carries are recorded at send time, so a later
        dispatch in the same flight window does not re-ship (and thereby
        clobber) resident state with the trainer's stale copy; a frame lost
        at send records nothing, so the next dispatch re-ships.
        """
        entry = self._ledger.post(slot_index, "run", items, **entry_fields)
        if not entry.lost:
            for key, _, epoch, _, _ in items:
                self._installed[key] = epoch
        return entry

    def start_steps(
        self,
        program: str,
        items: Sequence[Tuple[Any, Callable[[], Any], Any]],
    ) -> PendingSteps:
        """Dispatch one per-iteration step per ``(key, state_supplier, payload)``.

        The request is written to the slot channels immediately and a
        :class:`PendingSteps` handle is returned; the pool computes while the
        trainer does other work, and ``handle.result()`` collects the replies
        (in item order).  Multiple batches may be in flight at once — slots
        execute them FIFO — and their handles may be collected in any order.
        ``state_supplier`` provides the install payload when
        the pool holds no current copy for ``key`` (see :meth:`_run_item`).
        """
        handle = PendingSteps(self, len(items), op="run")
        if not items:
            return handle
        self._check_usable()
        per_slot: Dict[int, List[Tuple[int, tuple]]] = defaultdict(list)
        for position, (key, state_supplier, payload) in enumerate(items):
            item = self._run_item(program, key, state_supplier, payload)
            per_slot[self._slot_for(key)].append((position, item))
        for slot_index, placed in per_slot.items():
            entry = self._post_run(slot_index, [item for _, item in placed], owner=handle)
            handle._frames.append((entry, [position for position, _ in placed]))
        return handle

    def start_generation(
        self,
        handle,
        generator_supplier: Callable[[], Any],
        params_supplier: Callable[[], np.ndarray],
        g_inputs: Sequence[np.ndarray],
    ) -> PendingSteps:
        """Dispatch generator forward passes across the pool slots.

        ``handle`` is a :class:`~repro.runtime.pipeline.GeneratorHandle`
        naming the generator.  Batch ``j`` runs on the ``j``-th alive slot
        counted from the least-loaded one (the lowest on a tie: slot ``j`` of
        an idle pool), on that slot's resident copy of the
        generator: ``generator_supplier()`` is shipped (once per slot, on
        first use or after a pool restart) as the structural install, and
        ``params_supplier()`` — a copy of the current flat parameter vector,
        called at most once per dispatch — is written into the copy whenever
        the slot's cached handle version does not prove the copy current.
        With a *versioned* handle an unchanged generator therefore copies and
        ships **zero parameter bytes** per repeat request (pinned by
        :attr:`param_bytes_sent`); an unversioned handle re-ships every time,
        which is always safe.  A slot runs the batches it is given as one
        segmented forward (a segment per batch) and replies ``(images,
        generator.batch_stats(j))`` per batch; the caller folds the statistics
        back in batch order to reproduce the serial running-stat trajectory
        bitwise.

        Returns a :class:`PendingSteps` handle whose ``result()`` yields the
        per-batch replies in batch order, collectable like a step batch's.
        """
        key, version = handle.key, handle.version
        pending = PendingSteps(self, len(g_inputs), op="generate")
        if not len(g_inputs):
            return pending
        self._check_usable()
        alive = self._alive_slots()
        first = min(range(len(alive)), key=lambda index: self._ledger.depth(alive[index]))
        slots = alive[first:] + alive[:first]
        per_slot: Dict[int, List[int]] = defaultdict(list)
        for position in range(len(g_inputs)):
            per_slot[slots[position % len(slots)]].append(position)
        installed_slots = self._generator_slots.setdefault(key, set())
        params = None
        for slot_index, positions in per_slot.items():
            install = None
            if slot_index not in installed_slots:
                install = generator_supplier()
                self.install_count += 1
            # Param-cache: skip the parameter payload when this slot's copy
            # already holds this version's bits (sends are FIFO per slot).
            # Always queued: the serving dispatcher posts under its queue
            # lock, the pipelined trainer mid-iteration; inline writes cost
            # serve_mlp_pool_pipe ~5% of its request rate.
            stale = version is None or self._generator_versions.get((key, slot_index)) != version
            if stale and params is None:
                params = params_supplier()
            slot_params = params if stale else None
            entry = self._ledger.post(
                slot_index,
                "generate",
                (key, install, slot_params, [g_inputs[position] for position in positions]),
                owner=pending,
                queued=True,
            )
            pending._frames.append((entry, positions))
            if entry.lost:
                continue
            installed_slots.add(slot_index)
            if slot_params is not None:
                self.param_bytes_sent += int(getattr(slot_params, "nbytes", 0))
            if version is not None:
                self._generator_versions[(key, slot_index)] = version
        return pending

    def drain_inflight(self) -> None:
        """Wait out and discard every unanswered frame.

        Settles every slot before a membership boundary or a mirror: the
        steps *did* execute in the pool (resident state reflects them), only
        their results are dropped, so a subsequent :meth:`pull_state`
        observes consistent post-step state.  Discard-only: a frame lost with a
        quarantined slot is answered :data:`LOST`, never raised as a
        :class:`SlotLossError`, so draining is safe inside a loss-recovery
        path.  On the normal path every handle is collected and this is a no-op.
        """
        self._ledger.wait(self._ledger.entries())
        if self._collector is not None and not self._collector._dead:
            self._collector.drain()

    def _exchange(
        self, op: str, keys: Iterable, payload_for: Callable[[List], Any]
    ) -> Tuple[Dict[Any, Any], Optional[SlotLossError]]:
        """Post one boundary op per slot group and wait for exactly those replies.

        Replies queued ahead of them (steps of any view) reach their own
        entries on the way.  Elastic pools keep
        going when a slot is lost mid-exchange: the surviving slots' replies
        are still read (skipping them would desynchronize every later op on
        those channels) and the first loss is returned for the caller to
        surface or swallow.
        """
        grouped: Dict[int, List] = defaultdict(list)
        for key in keys:
            grouped[self._slot_for(key)].append(key)
        entries = [
            self._ledger.post(slot_index, op, payload_for(slot_keys))
            for slot_index, slot_keys in grouped.items()
        ]
        self._ledger.wait(entries)
        merged: Dict[Any, Any] = {}
        slot_loss: Optional[SlotLossError] = None
        for entry in entries:
            if entry.lost:
                slot_loss = slot_loss or entry.loss()
            elif isinstance(entry.reply, dict):
                merged.update(entry.reply)
        return merged, slot_loss

    def pull_params(self, keys: Sequence) -> Dict[Any, Any]:
        """Fetch flat parameter vectors from installed residents (state stays put).

        Safe mid-flight: each slot answers after the steps queued ahead.
        """
        keys = list(keys)
        if not keys:
            return {}
        self._check_usable()
        self._require_installed(keys, "pull_params")
        merged, slot_loss = self._exchange("pull_params", keys, lambda slot_keys: slot_keys)
        if slot_loss is not None:
            raise slot_loss
        return merged

    def push_params(self, params_by_key: Dict[Any, Any]) -> None:
        """Write flat parameter vectors into installed residents in place.

        Safe mid-flight: each slot applies them after the steps queued ahead.
        """
        if not params_by_key:
            return
        self._check_usable()
        self._require_installed(params_by_key, "push_params")
        _, slot_loss = self._exchange(
            "push_params",
            params_by_key,
            lambda slot_keys: {key: params_by_key[key] for key in slot_keys},
        )
        if slot_loss is not None:
            raise slot_loss

    def _pull_mirrors(
        self, op: str, keys: Sequence
    ) -> Tuple[List, Dict[Any, Any], Optional[SlotLossError]]:
        """The exchange behind :meth:`pull_mirror` and :meth:`pull_state`.

        Both are what trainers call from their success *and* cleanup paths,
        so unlike the raw boundary ops this first drains any in-flight step
        batches (an exception may have left pipelined steps uncollected, and
        the mirror must reflect the steps the pool actually executed), skips
        keys that are not installed, and on a broken pool answers nothing
        instead of raising.  Returns ``(keys asked, mirrors, first loss)``.
        """
        if self._broken_reason is not None:
            return [], {}, None
        self.drain_inflight()
        keys = [key for key in keys if self.installed(key)]
        merged, slot_loss = self._exchange(op, keys, lambda slot_keys: slot_keys)
        return keys, merged, slot_loss

    def pull_mirror(self, keys: Sequence) -> Dict[Any, Any]:
        """Fetch the residents' mirror payloads; the pool stays authoritative.

        No resident is dropped, no epoch is bumped, so a later ``train()``
        re-enters **warm**, without any install.  Each program's ``mirror``
        callable chooses what the trainer's objects need to reflect the
        current state (models, optimizer moments, RNG/sampler cursors — not
        the dataset shard, so the cost does not scale with shard bytes);
        programs without one return the full resident state.  This is the
        degrade-never-raise refresh: a slot lost while mirroring simply
        contributes nothing (its keys are queued for the trainer's recovery
        path by the quarantine).
        """
        return self._pull_mirrors("pull_mirror", keys)[1]

    def pull_state(self, keys: Sequence) -> Dict[Any, Any]:
        """*Reclaim* authority over ``keys``: mirror, then drop.

        Replies exactly like :meth:`pull_mirror`; the slots then forget the
        residents and the epochs are bumped, so stale copies can never be
        stepped again and the next participation re-installs from the
        trainer's (now current) objects.  A lost slot raises, with the
        survivors' mirrors in the error's ``replies``.
        """
        keys, merged, slot_loss = self._pull_mirrors("pull_state", keys)
        # Applied even on the loss path: slots that answered did drop their
        # residents (keys lost with a slot were already popped and
        # invalidated by the quarantine).
        for key in keys:
            self._installed.pop(key, None)
            self.invalidate(key)
        if slot_loss is not None:
            slot_loss.replies = merged
            raise slot_loss
        return merged
