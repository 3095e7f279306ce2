"""Unit tests for the link cost model."""

import math

import pytest

from repro.simulation import LinkModel


class TestLinkModel:
    def test_transfer_time(self):
        link = LinkModel(bandwidth_bytes_per_s=1000.0, latency_s=0.5)
        assert link.transfer_time(2000) == pytest.approx(2.5)

    def test_presets_ordering(self):
        # Edge links are slower than WAN, which is slower than datacenter.
        nbytes = 10_000_000
        assert (
            LinkModel.datacenter().transfer_time(nbytes)
            < LinkModel.wan().transfer_time(nbytes)
            < LinkModel.edge().transfer_time(nbytes)
        )

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(1000.0).transfer_time(-1)

    def test_nonpositive_bandwidth_rejected_at_construction(self):
        # A zero bandwidth would divide by zero inside transfer_time; it must
        # fail at construction, not on first use.
        with pytest.raises(ValueError, match="bandwidth_bytes_per_s"):
            LinkModel(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError, match="bandwidth_bytes_per_s"):
            LinkModel(bandwidth_bytes_per_s=-125.0)
        # NaN compares false both ways, so a ``<= 0`` check would let it in.
        with pytest.raises(ValueError, match="bandwidth_bytes_per_s"):
            LinkModel(bandwidth_bytes_per_s=math.nan)

    def test_negative_latency_rejected_at_construction(self):
        with pytest.raises(ValueError, match="latency_s"):
            LinkModel(bandwidth_bytes_per_s=1000.0, latency_s=-0.1)
        with pytest.raises(ValueError, match="latency_s"):
            LinkModel(bandwidth_bytes_per_s=1e6, latency_s=math.nan)

    def test_infinite_bandwidth_is_a_free_link(self):
        assert LinkModel(math.inf, latency_s=0.1).transfer_time(100) == 0.1

    def test_presets_pass_validation(self):
        for preset in (LinkModel.datacenter(), LinkModel.wan(), LinkModel.edge()):
            assert preset.bandwidth_bytes_per_s > 0
            assert preset.latency_s >= 0
