"""``repro.runtime`` — execution backends for the per-worker training phase.

Workers within one global iteration are independent by construction
(Algorithm 1 steps 2-3), so the trainers fan their per-worker work out
through the one resident protocol (:class:`ResidentBackend`), which holds
worker state in pool slots across iterations so only per-iteration deltas
cross to a slot.  The backends differ in where the slots live: ``serial``
(reference; one inline slot whose residents are the workers' own objects)
or ``resident`` (slots are child processes or worker hosts).  All
backends are bitwise-deterministic: results merge in worker-index order and
the step functions touch no shared state.

The resident pool's wire protocol is transport-agnostic
(:mod:`repro.runtime.transport`): ``transport="pipe"`` keeps the local
process pool, ``transport="tcp"`` serves the same protocol over sockets —
loopback, or real worker machines running
``python -m repro.runtime.worker_host --connect HOST:PORT``.  Either way a
worker's install (its state, dataset shard included) is pickled inside the
first ``run`` frame that needs it; there is no side channel.
"""

from .backend import BACKENDS, create_backend, default_max_workers
from .pipeline import (
    BatchAheadQueue,
    GeneratorHandle,
    InflightWindow,
    PendingGeneration,
    PipelineStats,
    can_generate_resident,
    start_resident_generation,
)
from .membership import (
    LOST,
    ON_SLOT_LOSS_POLICIES,
    MembershipEvent,
    MembershipPolicy,
    PoolMembership,
    SlotLossError,
)
from .resident import (
    PendingSteps,
    ResidentBackend,
    ResidentCollector,
    ResidentProgram,
    get_program,
    register_program,
    serve_slot,
    stable_key_hash,
)
from .transport import (
    TRANSPORTS,
    ChaosAction,
    ChaosChannel,
    ChaosSchedule,
    ChaosTransport,
    HandshakeRefused,
    LocalPipeTransport,
    TcpTransport,
    Transport,
    TransportError,
    create_transport,
    register_transport,
)
from .tasks import (
    FLGANResidentState,
    FLGANStepResult,
    MDGANResidentState,
    MDGANStepInput,
    MDGANStepResult,
    flgan_step,
    mdgan_step,
    mirror_payload,
)

__all__ = [
    "BACKENDS",
    "TRANSPORTS",
    "ResidentCollector",
    "PendingSteps",
    "ResidentBackend",
    "ResidentProgram",
    "BatchAheadQueue",
    "GeneratorHandle",
    "InflightWindow",
    "PipelineStats",
    "PendingGeneration",
    "start_resident_generation",
    "can_generate_resident",
    "Transport",
    "TransportError",
    "HandshakeRefused",
    "LocalPipeTransport",
    "TcpTransport",
    "ChaosAction",
    "ChaosChannel",
    "ChaosSchedule",
    "ChaosTransport",
    "LOST",
    "ON_SLOT_LOSS_POLICIES",
    "MembershipEvent",
    "MembershipPolicy",
    "PoolMembership",
    "SlotLossError",
    "create_backend",
    "create_transport",
    "register_transport",
    "register_program",
    "get_program",
    "serve_slot",
    "default_max_workers",
    "stable_key_hash",
    "MDGANResidentState",
    "MDGANStepInput",
    "MDGANStepResult",
    "FLGANResidentState",
    "FLGANStepResult",
    "mdgan_step",
    "flgan_step",
    "mirror_payload",
]
