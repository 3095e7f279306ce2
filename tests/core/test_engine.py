"""Execution-engine contract tests: the capability matrix and hook defaults.

The engine (:mod:`repro.core.engine`) is the single owner of the
dispatch → collect → merge schedule; these tests pin its public composition
contract — which mode combinations construct, which fail at config time
naming :data:`~repro.core.engine.CAPABILITY_MATRIX` — and the inertness of
the default :class:`~repro.core.engine.EngineHooks`.
"""

from __future__ import annotations

import pytest

from repro.core import TrainingConfig
from repro.core.engine import CAPABILITY_MATRIX, AsyncContext, EngineHooks, check_composition

pytestmark = pytest.mark.composition


class TestCapabilityMatrix:
    def test_elastic_on_serial_backend_names_the_matrix(self):
        with pytest.raises(ValueError, match="CAPABILITY_MATRIX"):
            TrainingConfig(backend="serial", on_slot_loss="degrade")

    def test_wait_on_serial_backend_rejected(self):
        with pytest.raises(ValueError, match="elastic x in-process backend"):
            TrainingConfig(backend="serial", on_slot_loss="wait")

    def test_lifted_compositions_construct(self):
        # Each of these raised "mutually exclusive" before the engine
        # unified the schedules; they are now supported compositions.
        TrainingConfig(aggregation="async", pipeline_depth=3)
        TrainingConfig(aggregation="async", participation_fraction=0.5)
        TrainingConfig(
            aggregation="async", backend="resident", on_slot_loss="wait"
        )
        TrainingConfig(
            backend="resident", on_slot_loss="degrade", pipeline_depth=2
        )
        TrainingConfig(
            aggregation="async",
            backend="resident",
            on_slot_loss="degrade",
            pipeline_depth=1,
            participation_fraction=0.75,
        )

    def test_check_composition_passes_defaults(self):
        check_composition(TrainingConfig())

    def test_matrix_documents_every_axis_and_refusal(self):
        assert set(CAPABILITY_MATRIX["axes"]) == {
            "aggregation",
            "pipeline_depth",
            "on_slot_loss",
            "participation_fraction",
            "backend",
        }
        assert CAPABILITY_MATRIX["supported"]
        # Every unsupported combination carries a human-readable reason.
        for reason in CAPABILITY_MATRIX["unsupported"].values():
            assert isinstance(reason, str) and reason


class TestEngineHooksDefaults:
    def test_optional_hooks_are_inert(self):
        hooks = EngineHooks()
        ctx = object()
        assert hooks._async_begin(ctx) is None
        assert hooks._async_dispatch(ctx) is None
        assert hooks._async_after_update(ctx, 1) is None
        assert hooks._async_barrier(ctx) is None
        assert hooks._async_finish(ctx) is None

    def test_required_hooks_raise(self):
        hooks = EngineHooks()
        ctx = object()
        with pytest.raises(NotImplementedError):
            hooks._sync_schedule(None)
        with pytest.raises(NotImplementedError):
            hooks._async_active(ctx)
        with pytest.raises(NotImplementedError):
            hooks._async_fold(ctx, None, None, None)
        with pytest.raises(NotImplementedError):
            hooks._async_merge(ctx, [], [])
        with pytest.raises(NotImplementedError):
            hooks._async_generate_unit(ctx)

    def test_context_accepts_trainer_specific_state(self):
        # AsyncContext is deliberately not slotted: trainers hang their
        # per-run extras (FL-GAN round progress) on it.
        from repro.core.async_aggregation import BoundedStalenessScheduler
        from repro.runtime.pipeline import PipelineStats

        ctx = AsyncContext(
            sched=BoundedStalenessScheduler(1),
            stats=PipelineStats(depth=0),
            collector=None,
        )
        ctx.done_iters = {}
        assert ctx.units == {}
        assert ctx.participants is None
        assert ctx.lookahead == []
