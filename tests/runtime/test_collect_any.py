"""Completion-order collection API tests (``open_collector`` / ``collect_any``).

The ``PendingSteps`` handles collect whole batches; the
collector hands back whichever unit finishes next and powers
``aggregation="async"``.  These tests pin its order semantics (FIFO on
``serial``'s inline slot, completion order on pools), its mid-flight
parameter traffic, and — mirroring ``test_transport.py`` — the
failure contract under fault injection: a killed slot, a dropped frame and a
truncated frame mid-``collect_any`` must each surface as a
:class:`TransportError` naming the slot and the in-flight op, poison the
pool fail-stop, and never hang.  On the resident backend both are views of
one in-flight ledger: ``TestOneLedger`` interleaves every view on one slot,
and ``TestFaultsThroughBothViews`` runs the same injections through
``PendingSteps.result()`` and ``collect_any()``, fail-stop and elastic.
The collector and dropped-frame tests run over both transports: pipe slots
and tcp worker hosts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.gan_ops import draw_generator_input
from repro.models import build_toy_gan
from repro.runtime import (
    LOST,
    ChaosTransport,
    GeneratorHandle,
    MembershipPolicy,
    ResidentBackend,
    ResidentCollector,
    SlotLossError,
    TransportError,
    create_backend,
)
from repro.runtime.resident import ResidentProgram, register_program, serve_slot
from repro.runtime.transport import LocalPipeTransport, TcpTransport


# A trivial resident program driven directly through the collector.
# Registered at import time, before any pool forks, so slot processes
# (pipe children and loopback tcp workers alike) inherit it.
def _echo_step(state, payload):
    if isinstance(payload, dict) and payload.get("sleep"):
        time.sleep(payload["sleep"])
    state["count"] = state.get("count", 0) + 1
    return (state["count"], payload)


register_program(
    ResidentProgram(
        name="collect-echo",
        step=_echo_step,
        pull_params=lambda state: dict(state),
        push_params=lambda state, params: state.update(params),
    )
)


def _fresh_state():
    return {"count": 0}


# -- serial: one inline slot ----------------------------------------------------


class TestSerialCollector:
    def test_serial_backend_collects_fifo(self):
        backend = create_backend("serial")
        try:
            collector = backend.open_collector("collect-echo")
            assert isinstance(collector, ResidentCollector)
            for key in (3, 1, 2):
                collector.dispatch(key, _fresh_state, key * 10)
            assert collector.outstanding == 3
            assert len(collector) == 3
            # Inline execution: completion order IS dispatch order — the
            # deterministic round-robin degenerate case of async mode.
            assert collector.collect_any() == (3, (1, 30))
            assert collector.collect_any() == (1, (1, 10))
            assert collector.collect_any() == (2, (1, 20))
            assert collector.outstanding == 0
        finally:
            backend.close()

    def test_collect_on_empty_collector_raises(self):
        backend = create_backend("serial")
        try:
            collector = backend.open_collector("collect-echo")
            with pytest.raises(RuntimeError, match="no outstanding"):
                collector.collect_any()
        finally:
            backend.close()

    def test_drain_discards_everything(self):
        backend = create_backend("serial")
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, "x")
            assert collector.drain() == 1
            assert collector.outstanding == 0
            collector.close()
        finally:
            backend.close()


# -- resident collector ------------------------------------------------------------


def _two_keys_on_distinct_slots(backend):
    """Two keys hashing to different slots of a 2-slot pool."""
    first = 0
    for candidate in range(1, 64):
        if backend._slot_for(candidate) != backend._slot_for(first):
            return first, candidate
    raise AssertionError("no distinct-slot key pair found")  # pragma: no cover


@pytest.mark.parametrize("transport", ("pipe", "tcp"))
class TestResidentCollector:
    def test_completion_order_and_mid_flight_params(self, transport):
        backend = create_backend("resident", max_workers=2, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            assert isinstance(collector, ResidentCollector)
            slow, fast = _two_keys_on_distinct_slots(backend)
            collector.dispatch(slow, _fresh_state, {"sleep": 0.6})
            collector.dispatch(fast, _fresh_state, {"sleep": 0.0})
            # Mid-flight parameter traffic: the pull answers while both
            # steps are still outstanding (step replies get buffered).
            pulled = backend.pull_params([fast])
            assert pulled[fast]["count"] in (0, 1)
            first_key, _ = collector.collect_any()
            second_key, _ = collector.collect_any()
            assert first_key == fast
            assert second_key == slow
            backend.push_params({fast: {"count": 100}})
            collector.dispatch(fast, _fresh_state, {"sleep": 0.0})
            key, (count, _) = collector.collect_any()
            assert key == fast
            assert count == 101  # pushed params reached the resident state
            collector.close()
        finally:
            backend.close()

    def test_duplicate_key_dispatch_is_rejected(self, transport):
        backend = create_backend("resident", max_workers=1, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, {"sleep": 0.2})
            with pytest.raises(RuntimeError, match="in flight"):
                collector.dispatch(0, _fresh_state, {"sleep": 0.0})
            collector.collect_any()
            collector.close()
        finally:
            backend.close()

    def test_explicit_timeout_does_not_poison(self, transport):
        backend = create_backend("resident", max_workers=1, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, {"sleep": 0.5})
            with pytest.raises(TimeoutError):
                collector.collect_any(timeout=0.05)
            # A caller-chosen deadline is back-pressure, not a fault: the
            # pool stays healthy and the step is still collectable.
            key, (count, _) = collector.collect_any()
            assert (key, count) == (0, 1)
            collector.close()
        finally:
            backend.close()


# -- fault injection (on the chaos harness) ----------------------------------------


class TestCollectAnyFaultInjection:
    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_killed_slot_fails_stop_mid_collect(self, transport):
        # A slot process dying while its step is being awaited must surface
        # as a TransportError naming the slot and op, tear the pool down and
        # refuse later calls — never hang the event loop.
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, {"sleep": 0.0})
            assert collector.collect_any()[0] == 0
            collector.dispatch(0, _fresh_state, {"sleep": 30.0})
            victim = backend._transport._processes[0]
            victim.kill()
            victim.join()
            started = time.monotonic()
            with pytest.raises(TransportError) as excinfo:
                collector.collect_any()
            assert time.monotonic() - started < 10.0
            assert excinfo.value.slot_index == 0
            assert excinfo.value.op == "run"
            assert backend._transport is None  # fail-stop: pool torn down
            with pytest.raises(RuntimeError, match="closed"):
                collector.collect_any()
            with pytest.raises(RuntimeError, match="closed"):
                collector.dispatch(0, _fresh_state, None)
            with pytest.raises(RuntimeError, match="previously failed"):
                backend.open_collector("collect-echo")
        finally:
            backend.close()

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_dropped_frame_surfaces_as_timeout_not_hang(self, transport):
        # A dispatch frame lost on the wire means the slot never replies;
        # the transport's read_timeout must turn the silent wait into a
        # clean TransportError instead of an infinite collect_any.
        if transport == "pipe":
            inner = LocalPipeTransport(serve_slot, read_timeout=1.0)
        else:
            inner = TcpTransport(connect_timeout=30.0, read_timeout=1.0)
        transport = ChaosTransport(inner)
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, "a")
            assert collector.collect_any() == (0, (1, "a"))
            transport.channel(0).force_next("drop")
            collector.dispatch(0, _fresh_state, "b")
            started = time.monotonic()
            with pytest.raises(TransportError, match="timed out") as excinfo:
                collector.collect_any()
            assert time.monotonic() - started < 10.0
            assert excinfo.value.slot_index == 0
            assert excinfo.value.op == "run"
            assert backend._transport is None
            with pytest.raises(RuntimeError, match="closed"):
                collector.collect_any()
            with pytest.raises(RuntimeError, match="previously failed"):
                backend.open_collector("collect-echo")
        finally:
            backend.close()

    def test_truncated_tcp_frame_poisons_fail_stop(self):
        # Half a frame followed by shutdown kills the worker mid-read; the
        # collector must observe the slot's death as a TransportError and
        # fail stop — no timeout needed, the broken stream is detectable.
        transport = ChaosTransport(TcpTransport(connect_timeout=30.0))
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, "a")
            assert collector.collect_any() == (0, (1, "a"))
            transport.channel(0).force_next("truncate")
            collector.dispatch(0, _fresh_state, "b")
            started = time.monotonic()
            with pytest.raises(TransportError) as excinfo:
                collector.collect_any()
            assert time.monotonic() - started < 30.0
            assert excinfo.value.slot_index == 0
            assert excinfo.value.op == "run"
            assert backend._transport is None
            with pytest.raises(RuntimeError, match="closed"):
                collector.dispatch(0, _fresh_state, "c")
            with pytest.raises(RuntimeError, match="previously failed"):
                backend.open_collector("collect-echo")
        finally:
            backend.close()


# -- one ledger, every view --------------------------------------------------------


def _toy_generation():
    """A tiny generator plus one input batch for ``start_generation``."""
    factory = build_toy_gan(image_shape=(1, 8, 8), num_classes=4, latent_dim=8, hidden=16)
    generator = factory.make_generator(np.random.default_rng(0))
    _, _, g_input = draw_generator_input(generator, factory, 4, np.random.default_rng(1))
    return generator, g_input


class TestOneLedger:
    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_views_interleave_on_one_slot_in_fifo_order(self, transport):
        # A collector step, a generate handle, a run handle and a boundary op
        # queued on the SAME slot: the slot answers in that order, and every
        # reply must land with the view that posted its frame — whichever
        # view happens to be waiting when it arrives.
        generator, g_input = _toy_generation()
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, {"sleep": 0.2})
            generated = backend.start_generation(
                GeneratorHandle(), lambda: generator, generator.get_parameters, [g_input]
            )
            batch = backend.start_steps("collect-echo", [(1, _fresh_state, "fifo")])
            assert [entry.op for entry in backend._ledger.entries()] == ["run", "generate", "run"]
            # The boundary op is last in the slot's queue: waiting for *its*
            # reply delivers the three replies queued ahead of it to their
            # own views on the way.
            assert backend.pull_params([0]) == {0: {"count": 1}}
            assert backend._ledger.entries() == []
            assert collector.outstanding == 1
            assert batch.result() == [(1, "fifo")]
            ((images, _stats),) = generated.result()
            assert images.shape[0] == 4
            assert collector.collect_any() == (0, (1, {"sleep": 0.2}))
            assert collector.outstanding == 0
            collector.close()
        finally:
            backend.close()

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_boundary_ops_answer_behind_inflight_steps_of_both_views(self, transport):
        # The per-slot FIFO is the only ordering rule: a pull or push posted
        # behind an in-flight step batch and a collector step on the same
        # slot answers after both, and each view still gets its own reply.
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, {"sleep": 0.2})
            batch = backend.start_steps("collect-echo", [(1, _fresh_state, "pull")])
            assert backend.pull_params([0, 1]) == {0: {"count": 1}, 1: {"count": 1}}
            assert batch.result() == [(1, "pull")]
            assert collector.collect_any() == (0, (1, {"sleep": 0.2}))
            collector.dispatch(0, _fresh_state, {"sleep": 0.2})
            batch = backend.start_steps("collect-echo", [(1, _fresh_state, "push")])
            backend.push_params({0: {"count": 10}, 1: {"count": 20}})
            # The steps ran before the push landed, and the push is what stays.
            assert batch.result() == [(2, "push")]
            assert collector.collect_any() == (0, (2, {"sleep": 0.2}))
            assert backend.pull_params([0, 1]) == {0: {"count": 10}, 1: {"count": 20}}
            assert backend._ledger.entries() == []
            collector.close()
        finally:
            backend.close()

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_waiting_on_a_later_view_first_still_routes_earlier_replies(self, transport):
        # Same queue, but the *run* handle at its tail is collected first:
        # the collector step queued ahead of it lands in the ready buffer and
        # the generate handle gets its own reply on the way.
        generator, g_input = _toy_generation()
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            collector = backend.open_collector("collect-echo")
            collector.dispatch(0, _fresh_state, "step")
            generated = backend.start_generation(
                GeneratorHandle(), lambda: generator, generator.get_parameters, [g_input]
            )
            batch = backend.start_steps("collect-echo", [(1, _fresh_state, {"sleep": 0.2})])
            assert batch.result() == [(1, {"sleep": 0.2})]
            assert backend._ledger.entries() == []
            assert collector.outstanding == 1
            assert generated.result()[0][0].shape[0] == 4
            assert collector.collect_any() == (0, (1, "step"))
            assert backend.pull_params([0, 1]) == {0: {"count": 1}, 1: {"count": 1}}
            collector.close()
        finally:
            backend.close()

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_drain_inflight_settles_both_views(self, transport):
        # A membership boundary drains every slot: the step batch's handle
        # still returns its reply, the collector's step is discarded, and
        # resident state reflects both steps.
        backend = ResidentBackend(max_workers=2, transport=transport)
        try:
            first, second = _two_keys_on_distinct_slots(backend)
            collector = backend.open_collector("collect-echo")
            collector.dispatch(first, _fresh_state, {"sleep": 0.2})
            batch = backend.start_steps("collect-echo", [(second, _fresh_state, "run")])
            backend.drain_inflight()
            assert backend._ledger.entries() == []
            assert collector.outstanding == 0
            assert batch.result() == [(1, "run")]
            assert backend.pull_params([first, second]) == {
                first: {"count": 1},
                second: {"count": 1},
            }
            collector.close()
        finally:
            backend.close()


# -- the same faults through both views --------------------------------------------


def _chaos_transport(fault):
    if fault == "truncate":
        return ChaosTransport(TcpTransport(connect_timeout=30.0))
    return ChaosTransport(
        LocalPipeTransport(serve_slot, read_timeout=1.0 if fault == "drop" else None)
    )


def _steps_through(backend, view, payloads, inject):
    """Dispatch one echo step per key through a view; return ``{key: result}``.

    ``inject`` runs between dispatch and collection (a fault landing while
    the steps are in flight).
    """
    if view == "fifo":
        items = [(key, _fresh_state, payload) for key, payload in payloads.items()]
        handle = backend.start_steps("collect-echo", items)
        inject()
        return dict(zip(payloads, handle.result()))
    collector = backend._collector or backend.open_collector("collect-echo")
    for key, payload in payloads.items():
        collector.dispatch(key, _fresh_state, payload)
    inject()
    return dict(collector.collect_any() for _ in payloads)


def _arm(transport, fault):
    """Return ``(before, during)`` injection callables for slot 0."""
    if fault == "kill":
        victim = transport.inner._processes[0]
        return (lambda: None), (lambda: (victim.kill(), victim.join()))
    return (lambda: transport.channel(0).force_next(fault)), (lambda: None)


@pytest.mark.parametrize("view", ("fifo", "collector"))
@pytest.mark.parametrize("fault", ("kill", "drop", "truncate"))
class TestFaultsThroughBothViews:
    def test_fail_stop_names_slot_and_op(self, fault, view):
        transport = _chaos_transport(fault)
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            assert _steps_through(backend, view, {0: "a"}, lambda: None) == {0: (1, "a")}
            before, during = _arm(transport, fault)
            before()
            started = time.monotonic()
            with pytest.raises(TransportError) as excinfo:
                _steps_through(backend, view, {0: {"sleep": 30.0}}, during)
            assert time.monotonic() - started < 10.0
            assert not isinstance(excinfo.value, SlotLossError)
            assert (excinfo.value.slot_index, excinfo.value.op) == (0, "run")
            assert backend._transport is None  # fail-stop: pool torn down
            with pytest.raises(RuntimeError, match="previously failed"):
                backend.start_steps("collect-echo", [(0, _fresh_state, "c")]).result()
        finally:
            backend.close()

    def test_elastic_answers_lost_and_survivors_complete(self, fault, view):
        transport = _chaos_transport(fault)
        backend = ResidentBackend(
            max_workers=2,
            transport=transport,
            membership_policy=MembershipPolicy(on_slot_loss="degrade"),
        )
        try:
            # Keys 0 and 1 live on slots 0 and 1 (founding hash placement).
            warm = _steps_through(backend, view, {0: "a", 1: "b"}, lambda: None)
            assert warm == {0: (1, "a"), 1: (1, "b")}
            before, during = _arm(transport, fault)
            before()
            started = time.monotonic()
            out = _steps_through(backend, view, {0: {"sleep": 30.0}, 1: "b2"}, during)
            assert time.monotonic() - started < 10.0
            assert out[0] is LOST
            assert out[1] == (2, "b2")
            assert backend.alive_slot_count() == 1
            assert backend.membership.take_pending_loss() == [0]
        finally:
            backend.close()
