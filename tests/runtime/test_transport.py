"""Transport-layer tests: framing, handshake, fault injection, worker hosts.

Bitwise parity of training *results* over tcp is pinned in ``test_parity.py``
(the ``resident-tcp`` pseudo-backend); these tests pin the transport machinery
itself — the TCP frame format and handshake, address parsing, and above all
the failure contract: any wire-level fault (killed slot, dropped frame,
truncated frame) must surface as a :class:`TransportError` naming the slot
index and the in-flight op, poison the pool fail-stop, and never hang.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from multiprocessing import connection
from pathlib import Path

import numpy as np
import pytest

from repro.core import MDGANTrainer, TrainingConfig
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_toy_gan
from repro.runtime import (
    LOST,
    ChaosChannel,
    ChaosSchedule,
    ChaosTransport,
    MembershipPolicy,
    ResidentBackend,
    TransportError,
    create_backend,
)
from repro.runtime.resident import ResidentProgram, register_program, serve_slot
from repro.runtime.transport import (
    LocalPipeTransport,
    TcpChannel,
    TcpTransport,
    parse_address,
)
from repro.runtime.transport.tcp import (
    _HEADER,
    _MAGIC,
    _MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    _server_handshake,
    client_handshake,
)


# -- shared fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_shards_and_factory():
    train, _ = make_gaussian_ring(n_train=160, n_test=40, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        latent_dim=8,
        hidden=16,
    )
    shards = partition_iid(train, 4, np.random.default_rng(3))
    return shards, factory


def _config(**overrides) -> TrainingConfig:
    base = dict(iterations=4, batch_size=8, seed=11, backend="resident", max_workers=2)
    base.update(overrides)
    return TrainingConfig(**base)


def _tcp_pair(read_timeout=None):
    """A connected pair of real loopback TcpChannels (client, server)."""
    listener = socket.create_server(("127.0.0.1", 0))
    client_sock = socket.create_connection(("127.0.0.1", listener.getsockname()[1]))
    server_sock, _ = listener.accept()
    listener.close()
    return (
        TcpChannel(client_sock, read_timeout=read_timeout),
        TcpChannel(server_sock, read_timeout=read_timeout),
    )


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# A trivial resident program the fault tests drive directly through the
# backend.  Registered at import time, before any pool forks, so the forked
# slot processes (pipe children and loopback tcp workers alike) inherit it.
def _echo_step(state, payload):
    state["count"] = state.get("count", 0) + 1
    return (state["count"], payload)


register_program(
    ResidentProgram(
        name="transport-echo",
        step=_echo_step,
        pull_params=lambda state: dict(state),
        push_params=lambda state, params: state.update(params),
    )
)


def _fresh_state():
    return {"count": 0}


# -- address parsing ---------------------------------------------------------------


class TestParseAddress:
    def test_valid_address(self):
        assert parse_address("example.com:5555") == ("example.com", 5555)
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)

    def test_missing_port_is_rejected(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("example.com")

    def test_non_integer_port_is_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            parse_address("example.com:abc")

    def test_out_of_range_port_is_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_address("example.com:70000")


# -- frame format ------------------------------------------------------------------


class TestTcpFraming:
    def test_roundtrip_preserves_frame_boundaries(self):
        a, b = _tcp_pair()
        try:
            payloads = [b"", b"x", os.urandom(1 << 18)]
            for payload in payloads:
                a.send_bytes(payload)
            for payload in payloads:
                assert b.poll(5.0)
                assert b.recv_bytes() == payload
            assert not b.poll(0.0)
        finally:
            a.close()
            b.close()

    def test_clean_peer_close_raises_eof(self):
        a, b = _tcp_pair()
        try:
            a.close()
            with pytest.raises(EOFError):
                b.recv_bytes()
        finally:
            b.close()

    def test_truncated_frame_raises_oserror(self):
        # A frame that announces 100 body bytes but delivers 10 before the
        # peer goes away is corruption, not a clean close: OSError, not
        # EOFError, and never a hang.
        a, b = _tcp_pair()
        try:
            a._sock.sendall(_HEADER.pack(100) + b"only-ten-b")
            a.close()
            with pytest.raises(OSError, match="mid-frame"):
                b.recv_bytes()
        finally:
            b.close()

    def test_corrupt_header_is_rejected(self):
        a, b = _tcp_pair()
        try:
            a._sock.sendall(_HEADER.pack(_MAX_FRAME_BYTES + 1))
            with pytest.raises(OSError, match="corrupt frame header"):
                b.recv_bytes()
        finally:
            a.close()
            b.close()

    def test_mid_frame_stall_times_out(self):
        # read_timeout bounds a *started* frame: a sender that stalls mid-body
        # (without closing) surfaces as a timeout error on the reader.
        a, b = _tcp_pair(read_timeout=0.2)
        try:
            a._sock.sendall(_HEADER.pack(100) + b"partial")
            with pytest.raises(OSError):
                b.recv_bytes()
        finally:
            a.close()
            b.close()


# -- fileno: what the backend's one wait loop blocks on ----------------------------


def _channel_pair(kind):
    """``(owner end, peer end)`` of one channel of each kind the pool hands out."""
    if kind == "tcp":
        return _tcp_pair()
    owner, peer = multiprocessing.Pipe(duplex=True)
    if kind == "chaos":
        owner = ChaosChannel(owner, ChaosSchedule(), slot=0)
    return owner, peer


def _echo_sleep_step(state, payload):
    time.sleep(payload)
    return payload


register_program(
    ResidentProgram(
        name="transport-sleep",
        step=_echo_sleep_step,
        pull_params=lambda state: dict(state),
        push_params=lambda state, params: state.update(params),
    )
)


class TestFilenoContract:
    @pytest.mark.parametrize("kind", ("pipe", "tcp", "chaos"))
    def test_descriptor_is_readable_exactly_when_a_message_waits(self, kind):
        owner, peer = _channel_pair(kind)
        try:
            assert isinstance(owner.fileno(), int) and owner.fileno() >= 0
            assert connection.wait([owner], 0.0) == []
            peer.send_bytes(b"reply")
            assert connection.wait([owner], 5.0) == [owner]
            assert owner.recv_bytes() == b"reply"
            assert connection.wait([owner], 0.0) == []
            # The peer's EOF is "something to return" too.
            peer.close()
            assert connection.wait([owner], 5.0) == [owner]
            with pytest.raises(EOFError):
                owner.recv_bytes()
        finally:
            owner.close()
            peer.close()

    @pytest.mark.parametrize("kind", ("pipe", "tcp", "chaos"))
    def test_closed_channel_has_no_descriptor_to_wait_on(self, kind):
        owner, peer = _channel_pair(kind)
        peer.close()
        owner.close()
        try:
            assert owner.fileno() < 0  # a closed socket answers -1 ...
        except OSError:
            pass  # ... a closed Connection raises
        with pytest.raises((OSError, ValueError)):
            connection.wait([owner], 0.0)

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_waiting_on_a_closed_channel_is_a_routed_wire_fault(self, transport):
        # The owner's end of a channel closed *under the wait* (kill_slot)
        # cannot be waited on at all; that must surface as the same routed
        # TransportError as any dead slot, not a bare ValueError/OSError.
        inner = LocalPipeTransport(serve_slot) if transport == "pipe" else TcpTransport()
        chaos = ChaosTransport(inner)
        backend = ResidentBackend(max_workers=1, transport=chaos)
        try:
            items = [(0, _fresh_state, 0.0)]
            assert backend.start_steps("transport-sleep", items).result() == [0.0]
            handle = backend.start_steps("transport-sleep", [(0, _fresh_state, 30.0)])
            chaos.kill_slot(0)
            started = time.monotonic()
            with pytest.raises(TransportError) as excinfo:
                handle.result()
            assert time.monotonic() - started < 10.0
            assert (excinfo.value.slot_index, excinfo.value.op) == (0, "run")
            assert backend._transport is None
        finally:
            backend.close()

    def test_closed_channel_under_an_elastic_wait_answers_lost(self):
        chaos = ChaosTransport(LocalPipeTransport(serve_slot))
        backend = ResidentBackend(
            max_workers=2,
            transport=chaos,
            membership_policy=MembershipPolicy(on_slot_loss="degrade"),
        )
        try:
            items = [(0, _fresh_state, 0.0), (1, _fresh_state, 0.0)]
            assert backend.start_steps("transport-sleep", items).result() == [0.0, 0.0]
            handle = backend.start_steps(
                "transport-sleep", [(0, _fresh_state, 30.0), (1, _fresh_state, 0.1)]
            )
            chaos.kill_slot(0)
            out = handle.result()
            assert out[0] is LOST and out[1] == 0.1
            # A boundary op towards the quarantined slot's key is refused
            # up front (its install died with the slot), never a hang.
            with pytest.raises(ValueError, match="pull_params requires"):
                backend.pull_params([0])
        finally:
            backend.close()


# -- handshake ---------------------------------------------------------------------


class TestHandshake:
    def test_assigns_slot_and_session(self):
        client, server = _tcp_pair()
        try:
            assignment = {}
            worker = threading.Thread(
                target=lambda: assignment.update(client_handshake(client))
            )
            worker.start()
            _server_handshake(server, slot_index=3, num_slots=4, session="abc123")
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert assignment["slot_index"] == 3
            assert assignment["num_slots"] == 4
            assert assignment["session"] == "abc123"
            assert assignment["protocol"] == PROTOCOL_VERSION
        finally:
            client.close()
            server.close()

    def test_server_refuses_bad_magic(self):
        client, server = _tcp_pair()
        try:
            client.send_bytes(_dumps({"magic": "not-repro", "protocol": 1}))
            with pytest.raises(TransportError, match="handshake failed") as excinfo:
                _server_handshake(server, slot_index=0, num_slots=1, session="s")
            assert excinfo.value.slot_index == 0
            # The worker is told why before the connection is abandoned.
            refusal = pickle.loads(client.recv_bytes())
            assert "not-repro" in refusal["error"]
        finally:
            client.close()
            server.close()

    def test_server_refuses_protocol_mismatch(self):
        # Version 1 is a real peer: a worker_host from before pull_state's
        # request/reply changed shape must be refused at the handshake, not
        # left to mis-unpack a frame.
        for version in (999, 1):
            assert version != PROTOCOL_VERSION
            client, server = _tcp_pair()
            try:
                client.send_bytes(_dumps({"magic": _MAGIC, "protocol": version}))
                with pytest.raises(TransportError, match=rf"got .* v{version}\b"):
                    _server_handshake(server, slot_index=1, num_slots=2, session="s")
            finally:
                client.close()
                server.close()

    def test_client_surfaces_refusal(self):
        client, server = _tcp_pair()
        try:
            server.send_bytes(_dumps({"error": "pool is full"}))
            with pytest.raises(TransportError, match="pool is full"):
                client_handshake(client)
        finally:
            client.close()
            server.close()

    def test_client_rejects_version_mismatch(self):
        client, server = _tcp_pair()
        try:
            server.send_bytes(_dumps({"magic": _MAGIC, "protocol": 999}))
            with pytest.raises(TransportError, match="mismatch"):
                client_handshake(client)
        finally:
            client.close()
            server.close()


class TestTcpLifecycle:
    def test_external_mode_times_out_without_workers(self):
        # External mode binds and waits for worker hosts; none connecting
        # must be a clean TransportError naming the progress, not a hang.
        transport = TcpTransport(
            address="127.0.0.1:0", spawn_workers=False, connect_timeout=0.2
        )
        try:
            with pytest.raises(TransportError, match="0 of 1"):
                transport.open(1)
        finally:
            transport.close()


# -- scheduling policy: slot processes do not preempt their owner ------------------


register_program(
    ResidentProgram(
        name="transport-policy",
        step=lambda state, payload: os.sched_getscheduler(0),
        pull_params=lambda state: dict(state),
        push_params=lambda state, params: state.update(params),
    )
)


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH on this platform")
class TestSlotSchedulingPolicy:
    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_slot_processes_run_under_the_batch_policy(self, transport):
        owner = os.sched_getscheduler(0)
        inner = LocalPipeTransport(serve_slot) if transport == "pipe" else TcpTransport()
        backend = ResidentBackend(max_workers=2, transport=inner)
        try:
            items = [(0, _fresh_state, None), (1, _fresh_state, None)]
            assert backend.start_steps("transport-policy", items).result() == [os.SCHED_BATCH] * 2
        finally:
            backend.close()
        assert os.sched_getscheduler(0) == owner

    def test_the_inline_slot_keeps_its_owners_policy(self):
        # ``serial``'s slot runs on the caller's thread: it must not demote
        # the trainer itself to the batch policy.
        owner = os.sched_getscheduler(0)
        backend = create_backend("serial")
        try:
            items = [(0, _fresh_state, None)]
            assert backend.start_steps("transport-policy", items).result() == [owner]
        finally:
            backend.close()
        assert os.sched_getscheduler(0) == owner


# -- slot death (unified TransportError regression) --------------------------------


class TestSlotDeath:
    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_killed_slot_names_slot_and_op(self, transport, small_shards_and_factory):
        # Regression for the unified error type: a slot process killed between
        # iterations must surface as TransportError carrying the slot index
        # and the in-flight op, poison the pool, and refuse later calls.
        shards, factory = small_shards_and_factory
        trainer = MDGANTrainer(factory, shards, _config(transport=transport))
        try:
            trainer.train_iteration(1)
            backend = trainer._backend
            victim = backend._transport._processes[0]
            victim.kill()
            victim.join()
            with pytest.raises(TransportError) as excinfo:
                trainer.train_iteration(2)
            # Slot indices follow accept order over tcp, so the victim may
            # serve either slot — but the error must name one, and the op.
            assert excinfo.value.slot_index in (0, 1)
            assert excinfo.value.op == "run"
            assert backend._transport is None  # fail-stop: pool torn down
            with pytest.raises(RuntimeError, match="previously failed"):
                trainer.train_iteration(3)
        finally:
            trainer.close_backend()


# -- fault injection: dropped / truncated frames (on the chaos harness) ------------


class TestFaultInjection:
    def test_dropped_pipe_frame_surfaces_as_timeout_not_hang(self):
        # A request frame lost on the wire means the slot never replies; the
        # transport's read_timeout must turn that into a clean TransportError
        # (pool poisoned, later calls refused) instead of an infinite wait.
        transport = ChaosTransport(LocalPipeTransport(serve_slot, read_timeout=1.0))
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            out = backend.start_steps("transport-echo", [(0, _fresh_state, "a")]).result()
            assert out == [(1, "a")]
            transport.channel(0).force_next("drop")
            started = time.monotonic()
            with pytest.raises(TransportError, match="timed out") as excinfo:
                backend.start_steps("transport-echo", [(0, _fresh_state, "b")]).result()
            assert time.monotonic() - started < 10.0
            assert excinfo.value.slot_index == 0
            assert excinfo.value.op == "run"
            assert backend._transport is None
            with pytest.raises(RuntimeError, match="previously failed"):
                backend.start_steps("transport-echo", [(0, _fresh_state, "c")]).result()
        finally:
            backend.close()

    def test_truncated_tcp_frame_poisons_fail_stop(self):
        # Half a frame followed by shutdown kills the worker mid-read; the
        # trainer side must observe the slot's death as a TransportError and
        # fail stop — no timeout needed, the broken stream is detectable.
        transport = ChaosTransport(TcpTransport(connect_timeout=30.0))
        backend = ResidentBackend(max_workers=1, transport=transport)
        try:
            out = backend.start_steps("transport-echo", [(0, _fresh_state, "a")]).result()
            assert out == [(1, "a")]
            transport.channel(0).force_next("truncate")
            with pytest.raises(TransportError) as excinfo:
                backend.start_steps("transport-echo", [(0, _fresh_state, "b")]).result()
            assert excinfo.value.slot_index == 0
            assert excinfo.value.op == "run"
            assert backend._transport is None
            with pytest.raises(RuntimeError, match="previously failed"):
                backend.start_steps("transport-echo", [(0, _fresh_state, "c")]).result()
        finally:
            backend.close()


# -- standalone worker host (python -m repro.runtime.worker_host) ------------------


def _worker_host_env() -> dict:
    """Environment for worker-host subprocesses: the repo's src on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestWorkerHost:
    def test_subprocess_workers_serve_the_protocol(self):
        # End-to-end over the real entrypoint: a fresh interpreter running
        # `python -m repro.runtime.worker_host --connect HOST:PORT --slots 2`
        # connects, handshakes, serves protocol ops (including the err path)
        # and exits cleanly when the server closes the pool.
        transport = TcpTransport(
            address="127.0.0.1:0", spawn_workers=False, connect_timeout=30.0
        )
        host, port = transport.listen(2)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.worker_host",
                "--connect",
                f"{host}:{port}",
                "--slots",
                "2",
            ],
            env=_worker_host_env(),
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            transport.open(2)
            for slot in range(2):
                transport.channel(slot).send_bytes(_dumps(("pull_params", [])))
            for slot in range(2):
                status, payload = pickle.loads(transport.channel(slot).recv_bytes())
                assert (status, payload) == ("ok", {})
            # The err path crosses the socket too: a failing op comes back as
            # ("err", traceback) with the worker-side cause attached.
            bad_run = ("run", [(0, "no-such-program", 0, {"state": 1}, None)])
            transport.channel(0).send_bytes(_dumps(bad_run))
            status, payload = pickle.loads(transport.channel(0).recv_bytes())
            assert status == "err"
            assert "Unknown resident program" in payload
            for slot in range(2):
                transport.channel(slot).send_bytes(_dumps(("close", None)))
            transport.close()
            assert proc.wait(timeout=30) == 0
            stderr = proc.stderr.read()
            assert "serving slot" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            transport.close()

    def test_loop_mode_serves_successive_pools(self):
        # Multi-run servers (fig4/fig5/traffic-check) build one pool per
        # training run on the same address; `--loop` keeps the host serving
        # until no server reappears within the connect timeout, then exits 0.
        # Also covers connect-retry: the host starts before any listener.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.worker_host",
                "--connect",
                f"{host}:{port}",
                "--loop",
                "--connect-timeout",
                "5",
            ],
            env=_worker_host_env(),
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            for _pool in range(2):
                transport = TcpTransport(
                    address=f"{host}:{port}",
                    spawn_workers=False,
                    connect_timeout=30.0,
                )
                assert transport.listen(1) == (host, port)
                transport.open(1)
                transport.channel(0).send_bytes(_dumps(("pull_params", [])))
                status, payload = pickle.loads(transport.channel(0).recv_bytes())
                assert (status, payload) == ("ok", {})
                transport.channel(0).send_bytes(_dumps(("close", None)))
                transport.close()
            assert proc.wait(timeout=30) == 0
            stderr = proc.stderr.read()
            assert "serving 2 pool(s)" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_connect_timeout_expiry_exits_nonzero(self):
        # No server ever listens: the host must give up when --connect-timeout
        # expires with a diagnostic and exit code 1, not retry forever.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.worker_host",
                "--connect",
                f"{host}:{port}",
                "--connect-timeout",
                "1",
            ],
            env=_worker_host_env(),
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.wait(timeout=30) == 1
            stderr = proc.stderr.read()
            assert "worker-host:" in stderr
            assert "no server listening" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_refused_handshake_retries_until_accepted(self):
        # An elastic server may refuse a joiner with retry=True (e.g. the pool
        # has not reached a join boundary); the host must back off, re-dial
        # the same address, and serve normally once a handshake is accepted.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(30.0)
        host, port = listener.getsockname()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.worker_host",
                "--connect",
                f"{host}:{port}",
                "--rejoin-backoff",
                "0.1",
            ],
            env=_worker_host_env(),
            stderr=subprocess.PIPE,
            text=True,
        )
        first = second = None
        try:
            conn, _ = listener.accept()
            first = TcpChannel(conn, read_timeout=30.0)
            first.recv_bytes()  # the worker's hello
            first.send_bytes(_dumps({"error": "not at a join boundary", "retry": True}))
            first.close()
            conn, _ = listener.accept()  # the re-dial after the backoff
            second = TcpChannel(conn, read_timeout=30.0)
            _server_handshake(second, slot_index=0, num_slots=1, session="s")
            second.send_bytes(_dumps(("close", None)))
            assert proc.wait(timeout=30) == 0
            stderr = proc.stderr.read()
            assert "retrying" in stderr
            assert "serving slot 0 of 1" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for channel in (first, second):
                if channel is not None:
                    channel.close()
            listener.close()
