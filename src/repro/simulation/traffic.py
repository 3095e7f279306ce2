"""Table III traffic accounting.

Every communication of the training algorithms is charged to a
:class:`TrafficMeter` at the point where its payload is handed over, as
``(kind, sender, recipient, nbytes, iteration)``.  The meter aggregates the
bytes and message counts per (sender, recipient, kind) link; the experiment
harness uses it to regenerate the measured counterparts of Table III
(communication complexities), Table IV (CIFAR10 example costs) and Figure 2
(maximum ingress traffic per iteration).

Byte sizes follow the paper's conventions: one transmitted scalar (model
parameter, image feature, or error-feedback feature) is a 32-bit float.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..nn.serialize import FLOAT_BYTES

__all__ = ["MessageKind", "payload_nbytes", "LinkStats", "TrafficMeter"]


class MessageKind(enum.Enum):
    """Classification of communications, matching the rows of Table III."""

    #: Server -> worker: generated batches X^(d), X^(g)   (MD-GAN)
    GENERATED_BATCHES = "generated_batches"
    #: Worker -> server: error feedback F_n                (MD-GAN)
    ERROR_FEEDBACK = "error_feedback"
    #: Worker -> worker: discriminator parameters swap     (MD-GAN)
    DISCRIMINATOR_SWAP = "discriminator_swap"
    #: Server -> worker: global model parameters           (FL-GAN)
    MODEL_BROADCAST = "model_broadcast"
    #: Worker -> server: locally updated model parameters  (FL-GAN)
    MODEL_UPDATE = "model_update"


def payload_nbytes(payload: Any) -> int:
    """Number of bytes needed to transmit ``payload`` as 32-bit floats.

    Arrays count ``4 * size`` bytes; containers are summed recursively;
    non-array scalars count one float.  ``None`` counts zero.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.size) * FLOAT_BYTES
    if isinstance(payload, (list, tuple, set)):
        return sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (int, float, np.integer, np.floating, bool)):
        return FLOAT_BYTES
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    raise TypeError(f"Cannot size payload of type {type(payload)!r}")


@dataclass
class LinkStats:
    """Accumulated statistics for one directed (sender, recipient, kind) link."""

    messages: int = 0
    bytes: int = 0

    def record(self, nbytes: int) -> None:
        self.messages += 1
        self.bytes += int(nbytes)


@dataclass
class TrafficMeter:
    """Aggregate per-link, per-endpoint and per-kind traffic statistics."""

    links: Dict[Tuple[str, str, MessageKind], LinkStats] = field(
        default_factory=lambda: defaultdict(LinkStats)
    )
    ingress: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    egress: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Per-iteration ingress bytes, used for "per communication" figures:
    #: iteration -> node -> bytes.
    ingress_by_iteration: Dict[int, Dict[str, int]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(int))
    )

    def charge(
        self,
        kind: MessageKind,
        sender: str,
        recipient: str,
        nbytes: int,
        iteration: Optional[int] = None,
    ) -> None:
        """Account for one communication of ``nbytes`` from ``sender`` to ``recipient``."""
        self.links[(sender, recipient, kind)].record(nbytes)
        self.ingress[recipient] += nbytes
        self.egress[sender] += nbytes
        if iteration is not None:
            self.ingress_by_iteration[iteration][recipient] += nbytes

    # -- queries -------------------------------------------------------------
    def total_bytes(self, kind: Optional[MessageKind] = None) -> int:
        """Total bytes carried, optionally restricted to one message kind."""
        return sum(
            stats.bytes
            for (_, _, k), stats in self.links.items()
            if kind is None or k == kind
        )

    def total_messages(self, kind: Optional[MessageKind] = None) -> int:
        """Total number of messages, optionally restricted to one kind."""
        return sum(
            stats.messages
            for (_, _, k), stats in self.links.items()
            if kind is None or k == kind
        )

    def node_ingress(self, node: str, kind: Optional[MessageKind] = None) -> int:
        """Bytes received by ``node``, optionally restricted to one kind."""
        if kind is None:
            return self.ingress.get(node, 0)
        return sum(
            stats.bytes
            for (_, recipient, k), stats in self.links.items()
            if recipient == node and k == kind
        )

    def node_egress(self, node: str, kind: Optional[MessageKind] = None) -> int:
        """Bytes sent by ``node``, optionally restricted to one kind."""
        if kind is None:
            return self.egress.get(node, 0)
        return sum(
            stats.bytes
            for (sender, _, k), stats in self.links.items()
            if sender == node and k == kind
        )

    def max_ingress_per_iteration(self, nodes: Iterable[str]) -> int:
        """Maximum per-iteration ingress over the given nodes (Figure 2)."""
        nodes = set(nodes)
        best = 0
        for per_node in self.ingress_by_iteration.values():
            for node, nbytes in per_node.items():
                if node in nodes:
                    best = max(best, nbytes)
        return best

    def summary_rows(self) -> List[Dict[str, object]]:
        """Flat per-link rows suitable for report tables."""
        rows = []
        for (sender, recipient, kind), stats in sorted(
            self.links.items(), key=lambda item: (item[0][2].value, item[0][0], item[0][1])
        ):
            rows.append(
                {
                    "sender": sender,
                    "recipient": recipient,
                    "kind": kind.value,
                    "messages": stats.messages,
                    "bytes": stats.bytes,
                }
            )
        return rows
