"""Execution backends for the per-worker phase of a global iteration.

The paper's algorithms are *embarrassingly parallel* across workers within
one global iteration: MD-GAN's Algorithm 1 steps 2-3 (``L`` discriminator
steps plus the error feedback) touch only worker-local state, and FL-GAN's
local epochs are independent between federated rounds.  The trainers in
``repro.core`` therefore run one step function per worker
(:mod:`repro.runtime.tasks`) through an :class:`ExecutorBackend` and merge
the results serially, in worker-index order, so every backend produces
*bitwise identical* training trajectories.

Backends:

``serial``
    The default.  Steps each worker's own objects in place, in a plain loop
    on the calling thread; zero overhead, reference behaviour.
``thread``
    The resident protocol (:mod:`repro.runtime.resident`) with every pool
    slot a thread of this process: worker state is installed once into a
    slot and only per-iteration inputs and outputs cross its pipe.  NumPy
    releases the GIL inside its kernels, so the conv/matmul-heavy worker
    steps overlap on multi-core hosts.
``resident``
    The same protocol with every slot a child process (``pipe``) or a
    worker host over ``tcp``: worker state stays resident in its slot across
    iterations (sticky worker->slot affinity), so only per-iteration deltas
    cross the process or machine boundary.
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
    "SerialBackend",
    "create_backend",
    "register_backend",
    "default_max_workers",
]

T = TypeVar("T")
R = TypeVar("R")

#: Names of the available execution backends, in documentation order.
BACKENDS = ("serial", "thread", "resident")

#: Registry mapping backend name -> factory taking ``max_workers``.
_REGISTRY: Dict[str, Callable[[Optional[int]], "ExecutorBackend"]] = {}


def register_backend(name: str, factory: Callable[[Optional[int]], "ExecutorBackend"]) -> None:
    """Register a backend factory under ``name`` (used by :func:`create_backend`)."""
    _REGISTRY[name] = factory


def default_max_workers() -> int:
    """Default pool size: every core but one, at least one."""
    return max(1, (os.cpu_count() or 1) - 1)


class PendingResult:
    """Handle for one dispatched batch of per-worker steps.

    Returned by :meth:`SerialBackend.submit_ordered` and, as
    :class:`~repro.runtime.ledger.PendingSteps`, by
    :meth:`ResidentBackend.start_steps`; :meth:`result` blocks until every
    step has finished and returns the results **in task order**.  The
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

    Used by the ``serial`` backend: the work ran eagerly at submit time, so
    ``result`` just hands the stored values back.
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


class CompletionCollector(ABC):
    """As-completed collection over independently keyed tasks.

    A :class:`PendingResult` returns results **in task order**, which is
    what the synchronous trainers need for bitwise determinism — but it makes
    the caller wait for the slowest task before seeing any result.  A
    collector is the complementary contract for the asynchronous aggregation
    mode: tasks are dispatched one at a time under a caller-chosen key, and
    :meth:`collect_any` hands back *whichever* task finishes next.
    Completion order is nondeterministic on concurrent backends by design;
    callers that need determinism keep using the ordered handles.

    One collector models one in-flight set; trainers open one per training
    run and close it before any whole-pool operation (state mirror, swap)
    runs.
    """

    @abstractmethod
    def dispatch(self, key: int, fn: Callable, task) -> None:
        """Start one task under ``key``.

        ``fn(task)`` is the work for the ``serial`` backend; the resident
        protocol instead interprets ``fn`` as the state supplier and ``task``
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


class ExecutorBackend:
    """Runs the per-worker step of an iteration; the owner merges in worker order.

    Results come back **in task order** regardless of completion order,
    which is what lets the trainers merge worker results deterministically
    (worker-index order) and keep seeded runs bitwise identical across
    backends.
    """

    #: Human-readable backend name (one of :data:`BACKENDS`).
    name: str = "abstract"

    def open_collector(self, program: Optional[str] = None) -> CompletionCollector:
        """Open a :class:`CompletionCollector` over this backend.

        ``program`` names the resident program for the resident protocol and
        is ignored by ``serial``, so trainers can pass it
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

    def submit_ordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> PendingResult:
        """Run ``fn`` over ``tasks`` inline, in order; the handle holds the results."""
        return CompletedResult([fn(task) for task in tasks])


register_backend("serial", lambda max_workers=None: SerialBackend())


def create_backend(
    name: str = "serial", max_workers: Optional[int] = None, **options
) -> ExecutorBackend:
    """Instantiate an execution backend by name (via the registry).

    ``max_workers`` bounds the pool size for ``thread``/``resident``
    (``None`` picks :func:`default_max_workers`); it is accepted
    and ignored for ``serial`` so call sites can thread the setting through
    unconditionally.  Extra keyword ``options`` are forwarded to the factory
    verbatim — the resident backend accepts ``transport=``/
    ``transport_address=`` (and the timeout knobs) this way; a backend
    whose factory does not take an option rejects it with a ``TypeError``
    rather than silently dropping it.
    """
    factory = _REGISTRY.get(name)
    if factory is None and name in BACKENDS:
        # The resident backends register themselves on import; pull them in lazily
        # so importing this module alone stays cheap and cycle-free.
        from . import resident  # noqa: F401  (registration side effect)

        factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(f"Unknown backend {name!r}; expected one of {BACKENDS}")
    return factory(max_workers, **options)
