"""Execution backends for the per-worker phase of a global iteration.

The paper's algorithms are *embarrassingly parallel* across workers within
one global iteration: MD-GAN's Algorithm 1 steps 2-3 (``L`` discriminator
steps plus the error feedback) touch only worker-local state, and FL-GAN's
local epochs are independent between federated rounds.  The trainers in
``repro.core`` therefore run one step function per worker
(:mod:`repro.runtime.tasks`) through the resident protocol
(:class:`~repro.runtime.resident.ResidentBackend`) and merge the results
serially, in worker-index order, so every backend produces *bitwise
identical* training trajectories.  Every backend is that one protocol; they
differ only in where its slots live.

Backends:

``serial``
    The default.  One inline slot: the slot's frame handler runs on the
    calling thread at dispatch, with the frame objects passed by reference,
    so its resident state *is* the workers' own objects.  No pickle, no
    copy, no thread, no process; reference behaviour.
``resident``
    Every slot a child process (``pipe``) or a worker host over ``tcp``:
    worker state stays resident in its slot across iterations (sticky
    worker->slot affinity), so only per-iteration deltas cross the process
    or machine boundary.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["BACKENDS", "create_backend", "default_max_workers"]

#: Names of the available execution backends, in documentation order.
BACKENDS = ("serial", "resident")


def default_max_workers() -> int:
    """Default pool size: every core but one, at least one."""
    return max(1, (os.cpu_count() or 1) - 1)


def create_backend(name: str = "serial", max_workers: Optional[int] = None, **options):
    """Instantiate an execution backend by name.

    ``max_workers`` bounds the ``resident`` pool size (``None`` picks
    :func:`default_max_workers`); it is accepted and ignored for ``serial``,
    whose one slot is inline, so call sites can thread the setting through
    unconditionally.  Extra keyword ``options`` are forwarded to
    ``resident`` verbatim (``transport=``/``transport_address=``,
    ``membership_policy=`` and the timeout knobs); ``serial`` takes none and
    rejects any with a ``TypeError``.
    """
    if name not in BACKENDS:
        raise ValueError(f"Unknown backend {name!r}; expected one of {BACKENDS}")
    # Imported here: the pool imports this module.
    from .resident import ResidentBackend
    from .slot import SlotHandler
    from .transport.local import InlineTransport

    if name == "resident":
        return ResidentBackend(max_workers, **options)
    if options:
        raise TypeError(f"the {name!r} backend takes no options; got {sorted(options)}")
    backend = ResidentBackend(1, transport=InlineTransport(SlotHandler))
    backend.name = name
    return backend
