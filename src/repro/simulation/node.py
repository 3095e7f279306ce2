"""Node abstractions for the emulated cluster.

A :class:`Node` is a named participant: a liveness flag plus a tiny
compute-cost ledger used by the workload analyses (Table II's computation
columns).  The concrete server / worker behaviours of the training
algorithms live in ``repro.core``; only the trainers charge the ledgers,
on the owner's thread, so worker code never touches one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["ComputeLedger", "Node"]


@dataclass
class ComputeLedger:
    """Accumulates abstract operation counts and a peak memory estimate.

    The trainers charge each merged phase the operation counts of
    :mod:`repro.analysis.cost`, by category, so a run's totals read Table
    II's computation rows with the model's constants kept.
    """

    flops: float = 0.0
    peak_memory_floats: float = 0.0
    by_category: Dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, flops: float) -> None:
        """Add ``flops`` operations under ``category``."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        self.flops += flops
        self.by_category[category] = self.by_category.get(category, 0.0) + flops

    def charge_all(self, ops: Dict[str, float]) -> None:
        """Charge a phase's ``{category: operations}``, in its order."""
        for category, flops in ops.items():
            self.charge(category, flops)

    def observe_memory(self, floats: float) -> None:
        """Record a transient memory requirement (keeps the running peak)."""
        self.peak_memory_floats = max(self.peak_memory_floats, float(floats))

    def reset(self) -> None:
        self.flops = 0.0
        self.peak_memory_floats = 0.0
        self.by_category.clear()


@dataclass
class Node:
    """A named participant of the emulated cluster: its ledger and liveness."""

    name: str
    compute: ComputeLedger = field(default_factory=ComputeLedger)
    alive: bool = True

    def crash(self) -> None:
        """Fail-stop crash: the node stops taking part (idempotent)."""
        self.alive = False

    def rejoin(self) -> None:
        """Bring a crashed node back (elastic membership revival).

        Its training state is the revival path's problem (restored from the
        last merged mirror).
        """
        self.alive = True
