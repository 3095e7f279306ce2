"""Link cost model: bytes to transfer time.

The paper runs its experiments as an *emulation* on one machine; a
:class:`LinkModel` converts the metered bytes of Table III into
communication time per global iteration for the WAN / LAN / edge-device
deployments that motivate the paper (see
:func:`~repro.simulation.timeline.estimate_iteration_time`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LinkModel"]


@dataclass(frozen=True)
class LinkModel:
    """Simple latency + bandwidth model for one network link.

    ``transfer_time(nbytes) = latency_s + nbytes / bandwidth_bytes_per_s``.
    """

    bandwidth_bytes_per_s: float
    latency_s: float = 0.0
    name: str = "link"

    def __post_init__(self) -> None:
        # ``not x > 0`` also rejects NaN; infinite bandwidth is a free link.
        if not self.bandwidth_bytes_per_s > 0:
            raise ValueError(
                "bandwidth_bytes_per_s must be positive, got "
                f"{self.bandwidth_bytes_per_s}"
            )
        if not self.latency_s >= 0:
            raise ValueError(f"latency_s must be non-negative, got {self.latency_s}")

    def transfer_time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    # Convenience presets for the deployment scenarios the paper targets.
    @staticmethod
    def datacenter() -> "LinkModel":
        """10 Gb/s, 0.1 ms — workers co-located in one datacenter."""
        return LinkModel(10e9 / 8, 1e-4, "datacenter")

    @staticmethod
    def wan() -> "LinkModel":
        """100 Mb/s, 50 ms — geo-distributed datacenters (Gaia-style)."""
        return LinkModel(100e6 / 8, 0.05, "wan")

    @staticmethod
    def edge() -> "LinkModel":
        """10 Mb/s, 100 ms — devices at the edge of the Internet."""
        return LinkModel(10e6 / 8, 0.1, "edge")
