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
TrainingConfig`).  Owners holding worker state *inside* the pool override
``sync_worker_state(workers=None, reclaim=True)`` to pull it back before the
pool goes away; the default is a no-op for owners (like the serving layer)
whose authoritative state lives on the caller side.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence

from ..runtime.backend import ExecutorBackend
from ..runtime.resident import ResidentBackend

__all__ = ["BackendOwner", "close_quietly"]


def close_quietly(backend: ExecutorBackend) -> None:
    """Close a backend, suppressing any error.

    The canonical quiet-close used by :class:`BackendOwner` as its
    garbage-collection / interpreter-exit finalizer: backends outlive
    individual ``train()``/``serve()`` calls, so an owner dropped without an
    explicit ``close()`` still releases its pool processes and shared-memory
    segments — and a shutdown-time failure must never surface as a spurious
    error.
    """
    try:
        backend.close()
    except Exception:
        pass


class BackendOwner:
    """Mixin owning an :class:`~repro.runtime.backend.ExecutorBackend`.

    The backend is owner-scoped, not call-scoped: it persists across
    ``train()`` calls (so a warm resident pool serves consecutive runs
    without re-installing worker state) until :meth:`close` /
    :meth:`close_backend` or the context-manager exit.  A garbage-collection
    finalizer closes it quietly as a safety net when the trainer is dropped
    without an explicit close.
    """

    #: Lazily built backend (see :attr:`executor`).
    _backend: Optional[ExecutorBackend] = None
    #: GC/exit finalizer for :attr:`_backend`; detached on explicit close.
    _backend_finalizer: Optional[weakref.finalize] = None
    #: Does this owner own (and therefore close) :attr:`_backend`?  ``False``
    #: after :meth:`adopt_backend` with ``owned=False`` — close paths then
    #: only drop the reference.
    _owns_backend: bool = True

    @property
    def executor(self) -> ExecutorBackend:
        """The configured execution backend, created on first use."""
        if self._backend is None:
            self._backend = self.config.build_backend()
            self._owns_backend = True
            self._backend_finalizer = weakref.finalize(self, close_quietly, self._backend)
        return self._backend

    def adopt_backend(self, backend: ExecutorBackend, *, owned: bool = False) -> None:
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

        Default: no-op.  Trainers whose worker state is resident in the pool
        override this; owners like the serving layer (whose generator lives
        on the caller side and is merely mirrored into slots) keep the no-op.
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
        builds a fresh backend and re-installs from those objects.
        """
        try:
            self.sync_worker_state()
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

    def _active_resident(self) -> Optional[ResidentBackend]:
        """The already-built resident backend, or ``None`` (never builds one)."""
        backend = self._backend
        if backend is not None and getattr(backend, "supports_resident", False):
            return backend
        return None

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
