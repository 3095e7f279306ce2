"""Backend-ownership lifecycle shared by the distributed trainers *and* the
serving layer.

Since the persistent-serving-layer change the execution backend is owned by
the *owner object*, not by an individual ``train()``/``serve()`` call: warm
resident pools survive across runs until the owner releases them.  This
mixin centralises that ownership — lazy construction with a
garbage-collection finalizer, explicit ``close()``, the context-manager
form, adoption of an externally owned backend (:meth:`adopt_backend`, how a
:class:`~repro.serving.GeneratorService` shares a trainer's warm pool), and
the best-effort cleanup used on failure paths — so
:class:`~repro.core.mdgan.MDGANTrainer`,
:class:`~repro.core.flgan.FLGANTrainer` and the service cannot drift apart
on lifecycle semantics.

Subclasses provide ``self.config`` (a :class:`~repro.core.config.
TrainingConfig`).  Owners holding worker state *inside* the pool — the two
trainers — derive from :class:`WorkerStateOwner`, which states once how that
state is installed, stepped, mirrored and reclaimed; the
:class:`BackendOwner` default ``sync_worker_state`` is a no-op for owners
(like the serving layer) whose authoritative state lives on the caller side.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from ..runtime.membership import SlotLossError
from ..runtime.resident import ResidentBackend
from ..runtime.tasks import restore_mirror

__all__ = ["BackendOwner", "WorkerStateOwner", "close_quietly"]


def close_quietly(backend: ResidentBackend) -> None:
    """Close a backend, suppressing any error.

    The canonical quiet-close used by :class:`BackendOwner` as its
    garbage-collection / interpreter-exit finalizer: backends outlive
    individual ``train()``/``serve()`` calls, so an owner dropped without an
    explicit ``close()`` still releases its pool processes and sockets — and
    a shutdown-time failure must never surface as a spurious error.
    """
    try:
        backend.close()
    except Exception:
        pass


class BackendOwner:
    """Mixin owning an execution backend (a :class:`~repro.runtime.resident.ResidentBackend`).

    The backend is owner-scoped, not call-scoped: it persists across
    ``train()`` calls (so a warm resident pool serves consecutive runs
    without re-installing worker state) until :meth:`close` /
    :meth:`close_backend` or the context-manager exit.  A garbage-collection
    finalizer closes it quietly as a safety net when the trainer is dropped
    without an explicit close.
    """

    #: Lazily built backend (see :attr:`executor`).
    _backend: Optional[ResidentBackend] = None
    #: GC/exit finalizer for :attr:`_backend`; detached on explicit close.
    _backend_finalizer: Optional[weakref.finalize] = None
    #: Does this owner own (and therefore close) :attr:`_backend`?  ``False``
    #: after :meth:`adopt_backend` with ``owned=False`` — close paths then
    #: only drop the reference.
    _owns_backend: bool = True

    @property
    def executor(self) -> ResidentBackend:
        """The configured execution backend, created on first use."""
        if self._backend is None:
            self._backend = self.config.build_backend()
            self._owns_backend = True
            self._backend_finalizer = weakref.finalize(self, close_quietly, self._backend)
        return self._backend

    def adopt_backend(self, backend: ResidentBackend, *, owned: bool = False) -> None:
        """Attach an existing backend instead of building one from config.

        With ``owned=False`` (the default) the caller keeps responsibility
        for the backend's lifetime — this owner's close paths drop the
        reference without closing the pool.  This is how a
        :class:`~repro.serving.GeneratorService` serves from a trainer's
        already-warm resident pool.  With ``owned=True`` ownership transfers
        here, finalizer included.
        """
        if backend is self._backend:
            return
        self.close_backend()
        self._backend = backend
        self._owns_backend = bool(owned)
        if owned:
            self._backend_finalizer = weakref.finalize(self, close_quietly, backend)

    def sync_worker_state(self, workers: Optional[Sequence[int]] = None,
                         reclaim: bool = True) -> None:
        """Pull authoritative worker state out of the pool before it closes.

        Default: no-op.  Trainers, whose worker state is resident in the
        pool, get the real one from :class:`WorkerStateOwner`; owners like
        the serving layer (whose generator lives on the caller side and is
        merely mirrored into slots) keep the no-op.
        """

    def close_backend(self) -> None:
        """Release the execution backend (recreated lazily if needed).

        Closes the pool only when this owner owns it; an adopted, unowned
        backend is just detached and left running for its real owner.
        """
        if self._backend_finalizer is not None:
            self._backend_finalizer.detach()
            self._backend_finalizer = None
        if self._backend is not None:
            if self._owns_backend:
                self._backend.close()
            self._backend = None
            self._owns_backend = True

    def close(self) -> None:
        """Reclaim resident worker state and shut the execution backend down.

        After ``close()`` the trainer's own worker objects hold the final
        state and the trainer remains usable — a later ``train()`` lazily
        builds a fresh backend and re-installs from those objects (an elastic
        trainer absorbs a slot lost during the reclaim).
        """
        try:
            self.sync_worker_state()
        except SlotLossError:
            if getattr(self, "elastic", None) is None:
                raise
            self.elastic.absorb_close_loss()
        finally:
            self.close_backend()

    def _cleanup_after_failure(self) -> None:
        """Best-effort cleanup for a failed run (never masks the error).

        Reclaims whatever worker state the pool still holds and closes the
        backend, suppressing secondary failures: a poisoned pool's
        ``_check_usable`` (or any other cleanup error) must not shadow the
        original exception.
        """
        try:
            self.sync_worker_state()
        except Exception:
            pass
        try:
            self.close_backend()
        except Exception:
            pass

    def __enter__(self) -> "BackendOwner":
        """Context-manager entry: the trainer scopes its backend's lifetime."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: release the backend.

        On a clean exit this is :meth:`close` (reclaiming sync, so the
        trainer's objects hold the final state).  When an exception is
        propagating, cleanup is best-effort instead — a secondary failure
        from an already-broken pool must not replace the original exception
        as the one the caller sees.
        """
        if exc_type is not None:
            self._cleanup_after_failure()
        else:
            self.close()


class WorkerStateOwner(BackendOwner):
    """A trainer: a :class:`BackendOwner` whose workers' state may live in the pool.

    The subclass names its algorithm's state dataclass in ``_state_type``
    (:mod:`repro.runtime.tasks`; its ``STATE_FIELDS`` tuple names the
    stateful fields a worker object and the state object share) and the
    static per-run context in ``_step_context``; everything that moves
    worker state — install payload and sync — is derived from those here,
    once for both trainers.  An installed worker's slot is the one owner of
    its state, RNG and sampler cursor included: the trainer's objects hold
    the install-time state until :meth:`sync_worker_state` copies it back.
    Host contract: ``self.workers`` (objects with ``index`` and the state
    fields), ``self.cluster.workers[i]`` nodes, and the engine hooks'
    ``_async_program``.
    """

    #: The algorithm's state dataclass; its resident program is the
    #: ``_async_program`` the trainer already names for the engine.
    _state_type: type
    #: Static keyword arguments completing ``_state_type`` (objective,
    #: hyper-parameters); identical for every worker of a run.
    _step_context: Dict[str, Any]

    def _alive_workers(self) -> List[Any]:
        """Worker-state objects whose emulated node is alive."""
        return [w for w in self.workers if self.cluster.workers[w.index].alive]

    def _resident_state(self, worker: Any):
        """The worker as a state object: the install payload, its objects by reference."""
        stateful = {name: getattr(worker, name) for name in self._state_type.STATE_FIELDS}
        return self._state_type(worker_index=worker.index, **stateful, **self._step_context)

    def _start_steps(self, work: Sequence[tuple]):
        """Dispatch one step per ``(worker, step_input)`` without blocking.

        Only the step input travels; the install supplier runs when the pool
        holds no current copy.  Returns a handle whose ``result()`` yields
        the results in ``work`` order.
        """
        return self.executor.start_steps(
            self._async_program,
            [(w.index, partial(self._resident_state, w), step) for w, step in work],
        )

    def _dispatch_unit(self, collector, worker: Any, step_input: Any = None) -> None:
        """Dispatch one step for ``worker`` through an as-completed collector."""
        collector.dispatch(worker.index, partial(self._resident_state, worker), step_input)

    def sync_worker_state(
        self, workers: Optional[Sequence[Any]] = None, reclaim: bool = True
    ) -> None:
        """Pull resident worker state back into the trainer's own objects.

        The pool replies with each worker's mirror payload (models,
        optimizer moments, RNG state, full sampler cursor — the immutable
        shard never re-crosses the wire).
        With ``reclaim`` (the default) the pool then drops its copies and the
        state epochs are bumped: the trainer is authoritative again and may
        mutate worker state freely before training resumes.  With
        ``reclaim=False`` the residents stay warm for the next ``train()``.
        On ``serial`` the mirror holds the worker's own objects, so the
        restore changes nothing.  Builds no backend.
        """
        resident = self._backend
        if resident is None:
            return
        targets = list(self.workers) if workers is None else list(workers)
        pull = resident.pull_state if reclaim else resident.pull_mirror
        mirrors = {}
        try:
            mirrors = pull([worker.index for worker in targets])
        except SlotLossError as loss:
            mirrors = loss.replies  # restored (below) before the loss surfaces
            raise
        finally:
            for worker in targets:
                mirror = mirrors.get(worker.index)
                if mirror is not None:
                    restore_mirror(worker, mirror)
