"""``repro.simulation`` — the emulated cluster's accounting.

Provides the Table III traffic meter (charged by the trainers wherever a
payload is handed over), per-node compute ledgers (charged by the trainers
when they merge a step) and liveness, fail-stop crash schedules, and the
link / timeline cost model.  The emulation keeps
the interaction ordering of the paper's Algorithm 1 while measuring every
byte that crosses a link.
"""

from .cluster import SERVER_NAME, Cluster, worker_name
from .failures import CrashSchedule
from .network import LinkModel
from .node import ComputeLedger, Node
from .timeline import HardwareProfile, IterationTimeline, estimate_iteration_time
from .traffic import LinkStats, MessageKind, TrafficMeter, payload_nbytes

__all__ = [
    "SERVER_NAME",
    "worker_name",
    "Cluster",
    "CrashSchedule",
    "MessageKind",
    "payload_nbytes",
    "LinkModel",
    "Node",
    "ComputeLedger",
    "TrafficMeter",
    "LinkStats",
    "HardwareProfile",
    "IterationTimeline",
    "estimate_iteration_time",
]
