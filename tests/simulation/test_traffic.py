"""Unit tests for payload byte sizing and the Table III traffic meter."""

import numpy as np
import pytest

from repro.simulation import MessageKind, TrafficMeter, payload_nbytes

GEN = MessageKind.GENERATED_BATCHES
FEEDBACK = MessageKind.ERROR_FEEDBACK


class TestPayloadBytes:
    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_array_counts_four_bytes_per_value(self):
        assert payload_nbytes(np.zeros((10, 3, 2))) == 60 * 4

    def test_nested_containers(self):
        payload = {"a": np.zeros(5), "b": [np.zeros(2), np.zeros(3)]}
        assert payload_nbytes(payload) == (5 + 2 + 3) * 4

    def test_scalars_count_one_float(self):
        assert payload_nbytes(3) == 4
        assert payload_nbytes(2.5) == 4
        assert payload_nbytes(True) == 4

    def test_strings_count_utf8_bytes(self):
        assert payload_nbytes("abcd") == 4

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            payload_nbytes(object())

    def test_float64_payloads_still_count_four_bytes(self):
        assert payload_nbytes(np.zeros(7, dtype=np.float64)) == 7 * 4


def test_kinds_cover_all_paper_communications():
    assert {k.value for k in MessageKind} == {
        "generated_batches",
        "error_feedback",
        "discriminator_swap",
        "model_broadcast",
        "model_update",
    }


class TestTrafficMeter:
    def _meter(self):
        meter = TrafficMeter()
        meter.charge(GEN, "server", "w0", 40, iteration=1)
        meter.charge(GEN, "server", "w1", 40, iteration=1)
        meter.charge(FEEDBACK, "w0", "server", 20, iteration=1)
        return meter

    def test_totals_and_per_kind(self):
        meter = self._meter()
        assert meter.total_messages() == 3
        assert meter.total_bytes() == 100
        assert meter.total_bytes(GEN) == 80
        assert meter.total_messages(GEN) == 2
        assert meter.total_bytes(FEEDBACK) == 20
        assert meter.total_bytes(MessageKind.DISCRIMINATOR_SWAP) == 0

    def test_ingress_and_egress(self):
        meter = self._meter()
        assert meter.node_ingress("server") == 20
        assert meter.node_egress("server") == 80
        assert meter.node_ingress("w0") == 40
        assert meter.node_ingress("w0", GEN) == 40
        assert meter.node_ingress("w0", FEEDBACK) == 0
        assert meter.node_egress("w0", FEEDBACK) == 20
        assert meter.node_ingress("nobody") == 0

    def test_max_ingress_per_iteration(self):
        meter = TrafficMeter()
        meter.charge(GEN, "s", "w0", 40, iteration=1)
        meter.charge(GEN, "s", "w0", 120, iteration=2)
        meter.charge(GEN, "s", "w0", 30, iteration=2)
        meter.charge(GEN, "s", "w1", 500, iteration=2)
        assert meter.max_ingress_per_iteration(["w0"]) == 150
        assert meter.max_ingress_per_iteration(["w0", "w1"]) == 500

    def test_charge_without_iteration_skips_per_iteration_ingress(self):
        meter = TrafficMeter()
        meter.charge(MessageKind.MODEL_UPDATE, "w0", "server", 8)
        assert meter.node_ingress("server") == 8
        assert meter.max_ingress_per_iteration(["server"]) == 0

    def test_summary_rows(self):
        rows = self._meter().summary_rows()
        assert rows == [
            {"sender": "w0", "recipient": "server", "kind": "error_feedback",
             "messages": 1, "bytes": 20},
            {"sender": "server", "recipient": "w0", "kind": "generated_batches",
             "messages": 1, "bytes": 40},
            {"sender": "server", "recipient": "w1", "kind": "generated_batches",
             "messages": 1, "bytes": 40},
        ]
