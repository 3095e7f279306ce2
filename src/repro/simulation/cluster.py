"""Cluster record: traffic meter, compute ledgers and liveness.

The cluster mirrors the paper's computation setup (Section III): one central
server ``C`` and ``N`` workers ``W_1..W_N`` connected through the parameter
server communication pattern, with MD-GAN adding worker-to-worker links for
discriminator swaps.  The trainers in ``repro.core`` move the data
themselves and charge each hand-over to :attr:`Cluster.meter`; this module
keeps the meter, one :class:`~repro.simulation.node.ComputeLedger` per
node, each worker's liveness and the fail-stop crash schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .failures import CrashSchedule
from .node import Node
from .traffic import TrafficMeter

__all__ = ["Cluster", "SERVER_NAME", "worker_name"]

#: Canonical name of the central server node (the paper's ``C``).
SERVER_NAME = "server"


def worker_name(index: int) -> str:
    """Canonical name of worker ``index`` (0-based internally, ``W_{i+1}`` in the paper)."""
    return f"worker-{index}"


class Cluster:
    """One server plus ``N`` workers, with one shared Table III meter."""

    def __init__(
        self, num_workers: int, crash_schedule: Optional[CrashSchedule] = None
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.meter = TrafficMeter()
        self.server = Node(SERVER_NAME)
        self.workers: List[Node] = [Node(worker_name(i)) for i in range(num_workers)]
        self.crash_schedule = crash_schedule or CrashSchedule.none()
        self._workers_by_name: Dict[str, Node] = {w.name: w for w in self.workers}

    def apply_crashes(self, iteration: int) -> List[str]:
        """Crash every worker scheduled for ``iteration``; returns their names."""
        crashed = []
        for name in self.crash_schedule.crashes_at(iteration):
            node = self._workers_by_name.get(name)
            if node is not None and node.alive:
                node.crash()
                crashed.append(name)
        return crashed

    def compute_summary(self) -> Dict[str, float]:
        """``history.compute``: the server's flops and the mean worker's."""
        return {
            "server_flops": float(self.server.compute.flops),
            "mean_worker_flops": float(np.mean([w.compute.flops for w in self.workers])),
        }
