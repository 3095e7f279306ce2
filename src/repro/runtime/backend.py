"""Execution backends for the per-worker phase of a global iteration.

The paper's algorithms are *embarrassingly parallel* across workers within
one global iteration: MD-GAN's Algorithm 1 steps 2-3 (``L`` discriminator
steps plus the error feedback) touch only worker-local state, and FL-GAN's
local epochs are independent between federated rounds.  The trainers in
``repro.core`` therefore split each iteration into three phases:

1. **build** (serial) — snapshot every participant's task (its state plus
   the step input the trainer handed it) as a self-contained, picklable
   value;
2. **compute** (parallel) — run the pure per-worker function over the tasks
   through an :class:`ExecutorBackend`;
3. **merge** (serial, worker-index order) — write results back into the
   trainer, charge each merged step's compute to its node ledger and charge
   the returned payloads to the Table III meter.

Because phase 2 is side-effect free and phases 1/3 are serial and ordered,
every backend produces *bitwise identical* training trajectories: ``thread``
and ``process`` only change wall-clock time, never numerics.

Backends:

``serial``
    The default.  Runs tasks in a plain loop on the calling thread; zero
    overhead, reference behaviour.
``thread``
    A :class:`concurrent.futures.ThreadPoolExecutor`.  NumPy releases the
    GIL inside its kernels, so the conv/matmul-heavy worker steps overlap on
    multi-core hosts without any serialization cost.
``process``
    A :class:`concurrent.futures.ProcessPoolExecutor`.  Tasks and results
    round-trip through pickle, so worker state must be picklable (the
    ``repro`` stack is pure NumPy and is).  Highest isolation and true
    parallelism for pure-Python-bound workloads, at the price of IPC.
``resident``
    A persistent process pool that keeps each worker's state *resident* in
    its pool process across iterations (sticky worker->process affinity), so
    only per-iteration inputs and outputs cross the IPC boundary instead of
    the full pickled worker state.  See :mod:`repro.runtime.resident`.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

__all__ = [
    "BACKENDS",
    "ExecutorBackend",
    "PendingResult",
    "CompletedResult",
    "CompletionCollector",
    "EagerCollector",
    "FuturesCollector",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "register_backend",
    "default_max_workers",
]

T = TypeVar("T")
R = TypeVar("R")

#: Names of the available execution backends, in documentation order.
BACKENDS = ("serial", "thread", "process", "resident")

#: Registry mapping backend name -> factory taking ``max_workers``.
_REGISTRY: Dict[str, Callable[[Optional[int]], "ExecutorBackend"]] = {}


def register_backend(name: str, factory: Callable[[Optional[int]], "ExecutorBackend"]) -> None:
    """Register a backend factory under ``name`` (used by :func:`create_backend`)."""
    _REGISTRY[name] = factory


def default_max_workers() -> int:
    """Default pool size: every core but one, at least one."""
    return max(1, (os.cpu_count() or 1) - 1)


class PendingResult:
    """Handle for an asynchronously dispatched ordered map.

    Returned by :meth:`ExecutorBackend.submit_ordered`; :meth:`result` blocks
    until every task has finished and returns the results **in task order**,
    exactly like :meth:`ExecutorBackend.map_ordered` would have.  The
    pipelined training mode (:mod:`repro.runtime.pipeline`) dispatches the
    per-worker phase through these handles so the server can keep computing
    while the workers run.
    """

    def result(self) -> List:
        """Block until every task has finished; return results in task order."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        """Whether :meth:`result` would return without blocking."""
        return False


class CompletedResult(PendingResult):
    """A :class:`PendingResult` whose values are already available.

    Used by backends without real asynchrony (``serial``; single-task fast
    paths): the work ran eagerly at submit time, so ``result`` just hands the
    stored values back.  Numerics are identical either way — only the overlap
    with the caller's own compute is lost.
    """

    def __init__(self, values: List) -> None:
        self._values = values

    def result(self) -> List:
        """Return the precomputed values (never blocks)."""
        return self._values

    @property
    def done(self) -> bool:
        """Always ``True`` — the work ran at submit time."""
        return True


class _FuturesResult(PendingResult):
    """Pending result backed by a list of ``concurrent.futures`` futures."""

    def __init__(self, futures: List) -> None:
        self._futures = futures

    def result(self) -> List:
        """Gather every future's result, in submission order."""
        return [future.result() for future in self._futures]

    @property
    def done(self) -> bool:
        """Whether every underlying future has completed."""
        return all(future.done() for future in self._futures)


class CompletionCollector(ABC):
    """As-completed collection over independently keyed tasks.

    The ordered-map contract (:meth:`ExecutorBackend.map_ordered` /
    :meth:`~ExecutorBackend.submit_ordered`) returns results **in task
    order**, which is what the synchronous trainers need for bitwise
    determinism — but it makes the caller wait for the slowest task before
    seeing any result.  A collector is the complementary contract for the
    asynchronous aggregation mode: tasks are dispatched one at a time under a
    caller-chosen key, and :meth:`collect_any` hands back *whichever* task
    finishes next.  Completion order is nondeterministic on concurrent
    backends by design; callers that need determinism keep using the ordered
    map.

    One collector models one in-flight set; trainers open one per training
    run and close it before any whole-pool operation (state mirror, swap)
    runs.
    """

    @abstractmethod
    def dispatch(self, key: int, fn: Callable, task) -> None:
        """Start one task under ``key``.

        ``fn(task)`` is the work for the stateless backends; the resident
        backend instead interprets ``fn`` as the state supplier and ``task``
        as the step payload (mirroring :meth:`ResidentBackend.start_steps`).
        A key may only have one task in flight at a time.
        """

    @abstractmethod
    def collect_any(self, timeout: Optional[float] = None) -> tuple:
        """Block until any outstanding task finishes; return ``(key, result)``.

        Raises ``TimeoutError`` if ``timeout`` (seconds) elapses first and
        ``RuntimeError`` if nothing is outstanding.  A task that raised
        re-raises here, after being removed from the outstanding set.
        """

    @property
    @abstractmethod
    def outstanding(self) -> int:
        """Number of dispatched tasks not yet returned by :meth:`collect_any`."""

    def __len__(self) -> int:
        return self.outstanding

    def drain(self) -> int:
        """Collect and discard every outstanding task; return the count."""
        discarded = 0
        while self.outstanding:
            self.collect_any()
            discarded += 1
        return discarded

    def close(self) -> None:
        """Drain any outstanding work and release the collector."""
        self.drain()


class EagerCollector(CompletionCollector):
    """Collector for inline backends: runs each task at dispatch time.

    Completion order degenerates to dispatch order (FIFO), which makes the
    asynchronous aggregation mode fully deterministic on the serial backend —
    the property the async regression tests pin.
    """

    def __init__(self) -> None:
        self._ready: List[tuple] = []

    def dispatch(self, key: int, fn: Callable, task) -> None:
        """Run ``fn(task)`` inline and queue the result for collection."""
        self._ready.append((key, fn(task)))

    def collect_any(self, timeout: Optional[float] = None) -> tuple:
        """Return the oldest dispatched ``(key, result)`` pair."""
        if not self._ready:
            raise RuntimeError("collect_any called with no outstanding tasks")
        return self._ready.pop(0)

    @property
    def outstanding(self) -> int:
        """Results queued but not yet collected."""
        return len(self._ready)


class FuturesCollector(CompletionCollector):
    """Collector backed by a ``concurrent.futures`` executor pool.

    ``collect_any`` waits with ``FIRST_COMPLETED`` semantics; when several
    futures are already done it returns the earliest-dispatched one, so
    backlogs drain in a stable order.
    """

    def __init__(self, pool) -> None:
        self._pool = pool
        self._in_flight: List[tuple] = []  # (key, future), dispatch order

    def dispatch(self, key: int, fn: Callable, task) -> None:
        """Submit ``fn(task)`` to the pool under ``key``."""
        self._in_flight.append((key, self._pool.submit(fn, task)))

    def collect_any(self, timeout: Optional[float] = None) -> tuple:
        """Return the next completed ``(key, result)``; earliest-dispatched first."""
        from concurrent.futures import FIRST_COMPLETED, wait

        if not self._in_flight:
            raise RuntimeError("collect_any called with no outstanding tasks")
        done, _ = wait([f for _, f in self._in_flight], timeout, FIRST_COMPLETED)
        if not done:
            raise TimeoutError(
                f"collect_any timed out after {timeout}s with "
                f"{len(self._in_flight)} task(s) outstanding"
            )
        index = next(i for i, (_, f) in enumerate(self._in_flight) if f in done)
        key, future = self._in_flight.pop(index)
        return key, future.result()

    @property
    def outstanding(self) -> int:
        """Futures dispatched but not yet collected."""
        return len(self._in_flight)


class ExecutorBackend(ABC):
    """Maps a pure function over independent per-worker tasks.

    The contract mirrors :func:`map`: results are returned **in task order**
    regardless of completion order, which is what lets the trainers merge
    worker results deterministically (worker-index order) and keep seeded
    runs bitwise identical across backends.
    """

    #: Human-readable backend name (one of :data:`BACKENDS`).
    name: str = "abstract"

    @abstractmethod
    def map_ordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every task and return the results in task order."""

    def submit_ordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> PendingResult:
        """Dispatch ``fn`` over ``tasks`` and return a :class:`PendingResult`.

        ``handle.result()`` is equivalent to ``map_ordered(fn, tasks)``
        bitwise; concurrent backends overlap the work with the caller between
        submit and collect.  The default implementation runs eagerly inline.
        """
        return CompletedResult(self.map_ordered(fn, tasks))

    def open_collector(self, program: Optional[str] = None) -> CompletionCollector:
        """Open a :class:`CompletionCollector` over this backend.

        ``program`` names the resident program for the resident backend and
        is ignored by the stateless backends, so trainers can pass it
        unconditionally.  The default implementation runs tasks eagerly at
        dispatch time (completion order == dispatch order).
        """
        return EagerCollector()

    def close(self) -> None:
        """Release pooled resources; the backend may be reused afterwards."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r})"


class SerialBackend(ExecutorBackend):
    """Reference backend: run every task inline on the calling thread."""

    name = "serial"

    def map_ordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Run every task inline, in order."""
        return [fn(task) for task in tasks]


class _PooledBackend(ExecutorBackend):
    """Shared lifecycle for the pool-based backends (lazy pool, reusable)."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or default_max_workers()
        self._pool = None

    def _make_pool(self):
        raise NotImplementedError

    @property
    def pool(self):
        """The underlying executor, created on first use."""
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def map_ordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Map ``fn`` over the tasks through the pool, preserving task order."""
        if len(tasks) <= 1:
            # Nothing to overlap; skip pool dispatch (and, for the process
            # backend, one pickle round-trip of the task payload).
            return [fn(task) for task in tasks]
        return list(self.pool.map(fn, tasks))

    def submit_ordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> PendingResult:
        """Submit the tasks to the pool and return a non-blocking handle."""
        if len(tasks) <= 1:
            # Mirror map_ordered's fast path: a single task is run inline
            # (no pool dispatch, no pickle round-trip) — at the cost of not
            # overlapping with the caller, which one task rarely repays.
            return CompletedResult([fn(task) for task in tasks])
        return _FuturesResult([self.pool.submit(fn, task) for task in tasks])

    def open_collector(self, program: Optional[str] = None) -> CompletionCollector:
        """Open a pool-backed collector (true as-completed semantics)."""
        return FuturesCollector(self.pool)

    def close(self) -> None:
        """Shut the pool down; a later use lazily recreates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadBackend(_PooledBackend):
    """Thread-pool backend; parallel where NumPy kernels release the GIL."""

    name = "thread"

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-worker"
        )


class ProcessBackend(_PooledBackend):
    """Process-pool backend; tasks/results round-trip through pickle."""

    name = "process"

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.max_workers)


register_backend("serial", lambda max_workers=None: SerialBackend())
register_backend("thread", lambda max_workers=None: ThreadBackend(max_workers=max_workers))
register_backend("process", lambda max_workers=None: ProcessBackend(max_workers=max_workers))


def create_backend(
    name: str = "serial", max_workers: Optional[int] = None, **options
) -> ExecutorBackend:
    """Instantiate an execution backend by name (via the registry).

    ``max_workers`` bounds the pool size for ``thread``/``process``/
    ``resident`` (``None`` picks :func:`default_max_workers`); it is accepted
    and ignored for ``serial`` so call sites can thread the setting through
    unconditionally.  Extra keyword ``options`` are forwarded to the factory
    verbatim — the resident backend accepts ``transport=``/
    ``transport_address=`` (and the timeout knobs) this way; a backend
    whose factory does not take an option rejects it with a ``TypeError``
    rather than silently dropping it.
    """
    factory = _REGISTRY.get(name)
    if factory is None and name in BACKENDS:
        # The resident backend registers itself on import; pull it in lazily
        # so importing this module alone stays cheap and cycle-free.
        from . import resident  # noqa: F401  (registration side effect)

        factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(f"Unknown backend {name!r}; expected one of {BACKENDS}")
    return factory(max_workers, **options)
