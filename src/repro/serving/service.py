"""``GeneratorService`` — request-facing sample generation on a warm pool.

MD-GAN's server already *is* a generation service during training: every
iteration it farms k-batch forward passes out to the resident pool
(:func:`repro.runtime.pipeline.start_resident_generation`).  This module
exposes that same machinery to callers outside the training loop:

* **Request path** — callers :meth:`~GeneratorService.serve` (blocking) or
  :meth:`~GeneratorService.submit` (async handle) one batch of samples per
  request.  Requests enter a FIFO queue; one dispatcher thread keeps a
  group in flight on every idle pool slot, **coalescing** the waiting
  requests into one resident k-batch dispatch from the least-loaded slot,
  so concurrent callers share the pool's slots instead of serialising.
* **Bitwise contract** — the dispatch reuses
  :meth:`~repro.runtime.resident.ResidentBackend.start_generation`'s
  contract exactly: noise/labels are drawn serially at *enqueue* time (in
  arrival order, on the service RNG — or on a per-request RNG when the
  caller supplies a ``seed``, making the request order-independent),
  forwards run on slot-resident generator copies, and BatchNorm batch
  statistics fold back into the service's generator in posting order.
  Samples are bit-for-bit what a serial
  :func:`~repro.core.gan_ops.sample_generator_images` loop would produce
  from the same draws.
* **Param cache** — the service's :class:`~repro.runtime.pipeline.
  GeneratorHandle` is versioned: repeat requests against an unchanged
  generator copy and ship **zero parameter bytes** (the slot copies are
  current); :meth:`~GeneratorService.update_generator` installs new weights
  and bumps the version, so exactly one re-ship per slot follows.
* **Fail-stop** — a transport failure (killed slot, broken socket) poisons
  the pool; the dispatcher broadcasts the error to every posted *and*
  queued request and the service refuses further requests, mirroring the
  resident backend's own fail-stop discipline.  Lost requests are reported,
  never silently re-run.

The ``serial`` backend (and generators the resident op cannot reproduce
exactly, e.g. with Dropout) run the same
coalesced batches inline on the dispatcher thread, each on a private copy
of the generator — identical results, without the pool's slots or its
param cache.

Lifecycle is the shared :class:`~repro.core.lifecycle.BackendOwner`
contract: the service lazily builds the backend from its config, or serves
straight from a trainer's already-warm pool via :meth:`GeneratorService.
from_trainer` (adopted unowned — closing the service leaves the trainer's
pool running).
"""

from __future__ import annotations

import copy
import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, Tuple

import numpy as np

from ..core.config import TrainingConfig
from ..core.gan_ops import draw_generator_input
from ..core.lifecycle import BackendOwner
from ..models.base import generator_input
from ..runtime.pipeline import GeneratorHandle, can_generate_resident
from .stats import ServingStats

__all__ = ["GeneratorService", "ServedBatch", "ServiceClosed", "PendingSamples"]


class ServiceClosed(RuntimeError):
    """The service was closed (or fail-stopped) before answering a request."""


@dataclass
class ServedBatch:
    """One answered generation request."""

    #: Generated images, shape ``(batch_size, *object_shape)``.
    images: np.ndarray
    #: The latent vectors the images were generated from.
    noise: np.ndarray
    #: Class labels (conditional factories only, else ``None``).
    labels: Optional[np.ndarray]
    #: Enqueue-to-ready latency, as the caller experienced it.
    latency_seconds: float = 0.0


@dataclass
class PendingSamples:
    """A submitted request's pre-drawn inputs, and its handle: ``result()`` blocks for it."""

    g_input: np.ndarray
    noise: np.ndarray
    labels: Optional[np.ndarray]
    enqueued_at: float
    done: threading.Event = field(default_factory=threading.Event)
    batch: Optional[ServedBatch] = None
    error: Optional[BaseException] = None

    def result(self, timeout: Optional[float] = None) -> ServedBatch:
        """Wait for the request's batch; re-raises the service's failure."""
        if not self.done.wait(timeout):
            raise TimeoutError("generation request did not complete in time")
        if self.error is not None:
            raise self.error
        assert self.batch is not None
        return self.batch


class GeneratorService(BackendOwner):
    """Serve generator samples from a warm execution backend.

    Parameters
    ----------
    generator:
        The (built) generator network to serve from.  The service folds
        BatchNorm running statistics back into it in posting order, exactly
        like the training-time generation paths.
    factory:
        The :class:`~repro.models.base.GANFactory` describing latent
        dimension / conditioning (used to draw request noise).
    config:
        A :class:`~repro.core.config.TrainingConfig`; supplies the backend
        selection (``backend``/``max_workers``/``transport``/
        ``transport_address``), the default per-request ``batch_size`` and
        the service RNG ``seed``.  Defaults to a resident-backend config.
    max_coalesce:
        Upper bound on requests folded into one dispatch (bounds worst-case
        head-of-line latency).  Default 64.
    """

    def __init__(
        self,
        generator,
        factory,
        config: Optional[TrainingConfig] = None,
        *,
        max_coalesce: int = 64,
    ) -> None:
        if not getattr(generator, "built", False):
            raise ValueError("GeneratorService needs a built generator")
        if max_coalesce < 1:
            raise ValueError(f"max_coalesce must be >= 1, got {max_coalesce}")
        self.config = config if config is not None else TrainingConfig(backend="resident")
        self.generator = generator
        self.factory = factory
        self.max_coalesce = int(max_coalesce)
        #: Versioned identity of the served generator on the pool slots;
        #: bumped by :meth:`update_generator` so repeat dispatches against an
        #: unchanged generator ship zero parameter bytes.
        self.handle = GeneratorHandle(version=0)
        self.stats = ServingStats()
        self._rng = np.random.default_rng(self.config.seed)
        self._lock = threading.Lock()
        self._queue: Deque[PendingSamples] = deque()
        self._work = threading.Condition(self._lock)
        self._dispatcher: Optional[threading.Thread] = None
        #: Whether the dispatcher is blocked on the wire: :meth:`_enqueue` then
        #: writes one byte to the wake pipe and clears it (one byte per wait).
        self._blocked = False
        self._wake_rx, self._wake_tx = multiprocessing.Pipe(duplex=False)
        self._closed = False
        self._failure: Optional[BaseException] = None

    # -- construction from a trainer ---------------------------------------------
    @classmethod
    def from_trainer(cls, trainer, *, max_coalesce: int = 64) -> "GeneratorService":
        """Serve from a trainer's generator on its already-warm pool.

        The trainer's backend is adopted *unowned* (closing the service
        leaves the pool running for the trainer) and the trainer's own
        versioned :class:`~repro.runtime.pipeline.GeneratorHandle` is
        shared, so generator updates applied by further training invalidate
        the service's param cache automatically.  Use between training
        phases — the pool's in-flight ledger is driven from one thread at a
        time, so the service must not dispatch while a ``train()`` call is live.
        """
        service = cls(
            trainer.generator,
            trainer.factory,
            trainer.config,
            max_coalesce=max_coalesce,
        )
        service.adopt_backend(trainer.executor, owned=False)
        service.handle = trainer._generator_handle
        return service

    # -- request path ------------------------------------------------------------
    def submit(
        self,
        *,
        batch_size: Optional[int] = None,
        seed: Optional[int] = None,
        noise: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
    ) -> PendingSamples:
        """Enqueue one generation request; returns a waitable handle.

        Noise/labels are drawn here, at enqueue time, under the queue lock —
        in arrival order on the service RNG, or on a private
        ``default_rng(seed)`` when ``seed`` is given (making the request's
        samples independent of arrival order).  Callers may also pass
        explicit ``noise`` (and ``labels`` for conditional factories)
        instead; a malformed one raises :class:`ValueError` here, to this
        caller only, before anything is drawn or enqueued.
        """
        batch_size = int(self.config.batch_size if batch_size is None else batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        factory = self.factory
        if noise is not None:
            noise = np.asarray(noise)
            if noise.ndim != 2 or len(noise) < 1 or noise.shape[1] != factory.latent_dim:
                raise ValueError(
                    f"noise must have shape (n >= 1, {factory.latent_dim}), got {noise.shape}"
                )
            batch_size = len(noise)
        if labels is not None:
            if not factory.conditional:
                raise ValueError("labels given, but the factory is not conditional")
            labels = np.asarray(labels)
            if labels.shape != (batch_size,):
                raise ValueError(f"labels must have shape ({batch_size},), got {labels.shape}")
            if labels.min() < 0 or labels.max() >= factory.num_classes:
                raise ValueError(f"labels must lie in [0, {factory.num_classes})")
        request_rng = np.random.default_rng(seed) if seed is not None else None
        now = time.perf_counter()
        with self._lock:
            self._check_open()
            rng = request_rng if request_rng is not None else self._rng
            if noise is None:
                noise = rng.normal(0.0, 1.0, size=(batch_size, factory.latent_dim))
            noise = noise.astype(self.generator.dtype, copy=False)
            if factory.conditional and labels is None:
                labels = rng.integers(0, factory.num_classes, size=batch_size)
            request = PendingSamples(
                g_input=generator_input(noise, labels, factory.num_classes),
                noise=noise,
                labels=labels,
                enqueued_at=now,
            )
            self._enqueue([request])
        self.stats.record_enqueue(now)
        return request

    def serve(
        self,
        *,
        batch_size: Optional[int] = None,
        seed: Optional[int] = None,
        noise: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        timeout: Optional[float] = None,
    ) -> ServedBatch:
        """Generate one batch of samples (blocking form of :meth:`submit`)."""
        return self.submit(
            batch_size=batch_size, seed=seed, noise=noise, labels=labels
        ).result(timeout)

    def warmup(self, num_batches: Optional[int] = None) -> List[ServedBatch]:
        """Prime every pool slot with one coalesced dispatch (blocking).

        Enqueues ``num_batches`` single-sample requests (default: the
        backend's pool size) *atomically under the queue lock*, so the
        dispatcher picks them up as one k-batch group whose batches land on
        slots ``0 .. k-1`` of the idle pool, installing the generator and
        filling the versioned param cache on every slot in one step; it
        returns their batches.  After a warm-up, an unchanged generator ships
        zero parameter bytes no matter which slot serves a request.  Call it
        before opening the service to traffic (a busy queue splits the group).
        """
        backend = self.executor
        if num_batches is None:
            num_batches = int(getattr(backend, "max_workers", None) or 1)
        num_batches = min(max(1, num_batches), self.max_coalesce)
        now = time.perf_counter()
        requests: List[PendingSamples] = []
        with self._lock:
            self._check_open()
            for _ in range(num_batches):
                noise, labels, g_input = draw_generator_input(
                    self.generator, self.factory, 1, self._rng
                )
                requests.append(PendingSamples(g_input, noise, labels, enqueued_at=now))
            self._enqueue(requests)
        self.stats.record_enqueue(now)
        return [request.result() for request in requests]

    def update_generator(self, parameters: np.ndarray) -> None:
        """Install new generator weights and invalidate the slot param cache.

        Runs under the queue lock, between dispatches: requests enqueued
        after this call are served by the new weights, and the next dispatch
        re-ships the parameter vector exactly once per slot (the handle
        version bump is what invalidates the cache).
        """
        with self._lock:
            self._check_open()
            self.generator.set_parameters(parameters)
            self.handle.bump()

    # -- dispatcher --------------------------------------------------------------
    def _enqueue(self, requests: List[PendingSamples]) -> None:
        """Queue requests and wake the dispatcher (starting it if needed); call under the lock."""
        self._queue.extend(requests)
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="generator-service", daemon=True
            )
            self._dispatcher.start()
        self._work.notify_all()
        if self._blocked:
            self._blocked = False
            self._wake_tx.send_bytes(b"\0")

    def _check_open(self) -> None:
        if self._failure is not None:
            raise ServiceClosed(
                "generator service fail-stopped after a backend failure; "
                f"rebuild it to continue. Original failure: {self._failure!r}"
            )
        if self._closed:
            raise ServiceClosed("generator service is closed")

    def _dispatch_loop(self) -> None:
        """Post queued requests to idle slots; answer posted groups in posting order.

        While a slot is idle, up to ``max_coalesce`` queued requests become
        one ``start_generation`` group; otherwise the loop blocks on the
        oldest group until it is answered or :meth:`_enqueue` wakes it.
        Without the pool (or with Dropout) each batch runs inline on its own
        deep copy, so no batch sees another's Dropout RNG advance.
        """
        backend = self.executor
        pipelined = can_generate_resident(backend, self.generator, 1)
        posted: Deque[Tuple[List[PendingSamples], Any]] = deque()
        taken: List[PendingSamples] = []
        try:
            while True:
                with self._work:
                    while not (self._queue or posted or self._closed):
                        self._work.wait()
                    if not (self._queue or posted):
                        return  # closed, with nothing queued or in flight
                    if self._queue and (not posted or backend.idle_slot_count()):
                        for _ in range(min(len(self._queue), self.max_coalesce)):
                            taken.append(self._queue.popleft())
                        g_inputs = [request.g_input for request in taken]
                        if pipelined:
                            # Under the queue lock, so that update_generator()
                            # cannot pair the new version with old parameters.
                            pending = backend.start_generation(
                                GeneratorHandle(key=self.handle.key, version=self.handle.version),
                                lambda: self.generator,
                                self.generator.get_parameters,
                                g_inputs,
                            )
                            posted.append((taken, pending))
                            taken = []
                            continue
                        copies = [copy.deepcopy(self.generator) for _ in taken]
                    self._blocked = pipelined
                if not pipelined:
                    outputs = [
                        (gen.forward(g_input, training=True), gen.batch_stats())
                        for gen, g_input in zip(copies, g_inputs)
                    ]
                    self._deliver(taken, outputs)
                    taken = []
                    continue
                requests, pending = posted[0]
                answered = pending.wait(wake=self._wake_rx)
                with self._lock:
                    woken, self._blocked = not self._blocked, False
                if woken:
                    self._wake_rx.recv_bytes()
                if answered:
                    self._deliver(requests, pending.result())
                    posted.popleft()
        except BaseException as exc:  # fail-stop: broadcast, then refuse
            self._fail(taken + [request for group, _ in posted for request in group], exc)

    def _deliver(self, requests: List[PendingSamples], outputs: List[Any]) -> None:
        """Fold one group's BatchNorm statistics, then answer its requests."""
        for _, stats in outputs:
            self.generator.fold_batch_stats(stats)
        now = time.perf_counter()
        self.stats.record_dispatch(len(requests))
        for request, (images, _) in zip(requests, outputs):
            latency = now - request.enqueued_at
            request.batch = ServedBatch(
                images=images,
                noise=request.noise,
                labels=request.labels,
                latency_seconds=latency,
            )
            self.stats.record_request(latency, len(images), now)
            request.done.set()

    def _fail(self, in_flight: List[PendingSamples], exc: BaseException) -> None:
        """Broadcast ``exc`` to in-flight and queued requests; refuse new ones."""
        with self._lock:
            self._failure = exc
            queued = list(self._queue)
            self._queue.clear()
        for request in in_flight + queued:
            request.error = exc
            self.stats.record_failure()
            request.done.set()

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Answer what is in flight, refuse what is queued, and shut down.

        Queued-but-undispatched requests complete with :class:`ServiceClosed`
        (they were never sent to the pool); groups already posted are
        collected and answered, then the dispatcher thread exits and the
        wake pipe is closed; the backend is released per the
        :class:`~repro.core.lifecycle.BackendOwner` contract (an adopted,
        unowned pool is left running).
        """
        with self._lock:
            self._closed = True
            queued = list(self._queue)
            self._queue.clear()
            self._work.notify_all()
        for request in queued:
            request.error = ServiceClosed("generator service closed before dispatch")
            request.done.set()
        dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher is not threading.current_thread():
            dispatcher.join(timeout=30.0)
        self._wake_rx.close()
        self._wake_tx.close()
        super().close()

    def __enter__(self) -> "GeneratorService":
        return self
