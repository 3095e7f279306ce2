"""Unit tests for training configuration objects."""

import math

import pytest

from repro.core import OptimizerConfig, TrainingConfig, resolve_num_batches
from repro.nn import Adam


class TestOptimizerConfig:
    def test_build_creates_adam(self):
        opt = OptimizerConfig(learning_rate=0.01, beta1=0.3).build()
        assert isinstance(opt, Adam)
        assert opt.learning_rate == 0.01
        assert opt.beta1 == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(beta1=1.0)


class TestTrainingConfig:
    def test_defaults_are_valid(self):
        config = TrainingConfig()
        assert config.iterations > 0
        assert config.batch_size > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iterations=0),
            dict(batch_size=0),
            dict(disc_steps=0),
            dict(epochs_per_swap=0),
            dict(num_batches=0),
            dict(participation_fraction=0.0),
            dict(participation_fraction=1.5),
            dict(eval_every=-1),
            dict(backend="gpu"),
            dict(max_workers=0),
            dict(pipeline_depth=-1),
            dict(epochs_per_swap=math.nan),
            dict(epochs_per_swap=-math.inf),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    @pytest.mark.parametrize("field", ["rejoin_backoff", "rejoin_timeout"])
    def test_nan_elastic_timing_rejected_under_any_policy(self, field):
        # Validated by the one MembershipPolicy construction, fail-stop
        # included, so NaN never reaches time.sleep mid-run.
        for policy in ("fail_stop", "degrade"):
            backend = "serial" if policy == "fail_stop" else "resident"
            with pytest.raises(ValueError, match=f"{field} must be > 0, got nan"):
                TrainingConfig(on_slot_loss=policy, backend=backend, **{field: math.nan})

    def test_pipeline_depth_defaults_to_synchronous(self):
        assert TrainingConfig().pipeline_depth == 0
        assert TrainingConfig(pipeline_depth=3).pipeline_depth == 3

    @pytest.mark.parametrize("transport", [None, "pipe"])
    def test_transport_address_requires_tcp(self, transport):
        # ``None`` resolves to the pipe transport, which would drop the
        # address; only an explicit ``"tcp"`` listens on it.
        address = "10.0.0.5:7000"
        with pytest.raises(ValueError, match="transport='tcp'"):
            TrainingConfig(backend="resident", transport=transport, transport_address=address)
        config = TrainingConfig(backend="resident", transport="tcp", transport_address=address)
        assert config.transport_address == address

    def test_build_backend_follows_config(self):
        from repro.runtime import ResidentBackend

        serial = TrainingConfig().build_backend()
        assert isinstance(serial, ResidentBackend)
        assert serial.name == "serial" and serial.max_workers == 1
        backend = TrainingConfig(backend="resident", max_workers=3).build_backend()
        assert isinstance(backend, ResidentBackend)
        assert backend.max_workers == 3
        assert backend.transport is None and backend.membership_policy is None
        backend.close()
        tcp = TrainingConfig(
            backend="resident",
            transport="tcp",
            transport_address="127.0.0.1:7000",
            on_slot_loss="degrade",
        ).build_backend()
        assert (tcp.transport, tcp.transport_address) == ("tcp", "127.0.0.1:7000")
        assert tcp.membership_policy.on_slot_loss == "degrade"

    def test_infinite_epochs_allowed(self):
        config = TrainingConfig(epochs_per_swap=math.inf)
        assert math.isinf(config.epochs_per_swap)

    def test_with_overrides_returns_new_object(self):
        config = TrainingConfig(iterations=10)
        other = config.with_overrides(batch_size=99)
        assert other.batch_size == 99
        assert other.iterations == 10
        assert config.batch_size != 99


class TestResolveNumBatches:
    def test_default_is_floor_log_n(self):
        config = TrainingConfig(num_batches=None)
        assert resolve_num_batches(config, 1) == 1
        assert resolve_num_batches(config, 10) == 2  # floor(ln 10) = 2
        assert resolve_num_batches(config, 25) == 3
        assert resolve_num_batches(config, 50) == 3

    def test_explicit_value_clamped_to_worker_count(self):
        config = TrainingConfig(num_batches=8)
        assert resolve_num_batches(config, 4) == 4
        assert resolve_num_batches(config, 16) == 8

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            resolve_num_batches(TrainingConfig(), 0)
