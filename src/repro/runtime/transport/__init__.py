"""``repro.runtime.transport`` — pluggable transports for the resident pool.

The resident protocol (install / step / pull / push / generate / mirror ops
with state-epoch invalidation and fail-stop poisoning, see
:mod:`repro.runtime.resident`) is transport-agnostic: it speaks pickled
``(op, payload)`` messages over a :class:`SlotChannel` per pool slot and
never cares what moves the bytes.  This package supplies the channels:

``pipe``
    :class:`LocalPipeTransport` — daemon child processes over
    ``multiprocessing`` pipes; today's local pool, bitwise unchanged.
``tcp``
    :class:`TcpTransport` — length-prefixed frames over one TCP connection
    per slot, either spawning loopback workers itself or accepting
    ``python -m repro.runtime.worker_host --connect HOST:PORT`` processes
    from other machines.

Transport selection is threaded explicitly through configuration —
``TrainingConfig(transport=..., transport_address=...)`` or the backend's
own attributes; the CLI's ``--transport`` flag travels the same way.  A
backend built with ``transport=None`` gets :data:`TRANSPORT_DEFAULT`.
"""

from __future__ import annotations

from ..slot import serve_slot
from .base import (
    TRANSPORTS,
    SlotChannel,
    Transport,
    TransportError,
    create_transport,
    register_transport,
)
from .chaos import ChaosAction, ChaosChannel, ChaosSchedule, ChaosTransport
from .local import LocalPipeTransport
from .tcp import (
    PROTOCOL_VERSION,
    HandshakeRefused,
    TcpChannel,
    TcpTransport,
    parse_address,
)

__all__ = [
    "TRANSPORTS",
    "SlotChannel",
    "Transport",
    "TransportError",
    "HandshakeRefused",
    "LocalPipeTransport",
    "TcpChannel",
    "TcpTransport",
    "ChaosAction",
    "ChaosChannel",
    "ChaosSchedule",
    "ChaosTransport",
    "PROTOCOL_VERSION",
    "parse_address",
    "create_transport",
    "register_transport",
    "TRANSPORT_DEFAULT",
]

#: Transport of a resident backend built without an explicit ``transport=``.
TRANSPORT_DEFAULT = "pipe"


def _pipe_factory(**options) -> LocalPipeTransport:
    options.pop("address", None)  # pipes are always local; accepted, ignored
    options.pop("connect_timeout", None)
    return LocalPipeTransport(serve_slot, **options)


register_transport("pipe", _pipe_factory)
register_transport("tcp", TcpTransport)

