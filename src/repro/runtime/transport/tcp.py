"""TCP socket transport: pool slots on real machines.

The paper's MD-GAN deployment model is a parameter server driving
discriminators on *other hosts*; this transport is that jump.  The resident
protocol's pickled ``(op, payload)`` messages ride length-prefixed frames
over one TCP connection per pool slot:

``frame    = header + body``
``header   = 8-byte big-endian unsigned length of body``
``body     = pickle stream (protocol messages) — no compression, no escaping``

Message framing therefore has the same guarantees as a ``multiprocessing``
pipe — whole messages, in order, ``EOFError`` on clean peer close — which is
what lets the protocol layer run unchanged over either.

Connections open with a **handshake** before any protocol traffic: the
worker sends ``{magic, protocol}``, the server validates both and replies
``{magic, protocol, slot_index, num_slots, session}``.  ``slot_index`` is
assigned in accept order (worker->slot affinity then works exactly as for
local pipes), and ``session`` is a random nonce identifying this pool
incarnation — a worker host can log it, and reconnection into a live pool is
deliberately impossible (fail-stop: a lost slot poisons the pool).  State
epochs need no handshake field beyond that: a freshly connected slot holds
no residents by construction, so the server's install tracking starts empty
and the first ``run`` op ships full state, exactly as for a fresh local
pool.

Install payloads ride the socket inside the ``run`` / ``generate`` message
like any other bytes — the one install path every transport shares.

Two modes:

* **loopback** (``address=None``) — bind ``127.0.0.1:0`` and spawn one local
  worker-host process per slot.  Used by the parity/fault test suites and by
  anyone who wants socket semantics without a second machine.
* **external** (``address="HOST:PORT"``) — bind the given address and wait
  up to ``connect_timeout`` for ``python -m repro.runtime.worker_host
  --connect HOST:PORT`` processes started elsewhere to connect.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import socket
import struct
from typing import List, Optional, Tuple

from .base import SlotChannel, Transport, TransportError

__all__ = [
    "PROTOCOL_VERSION",
    "HandshakeRefused",
    "TcpChannel",
    "TcpTransport",
    "parse_address",
    "client_handshake",
]

#: Wire-protocol version; bumped on any frame/handshake/op-table change.
PROTOCOL_VERSION = 2

#: Handshake magic identifying this protocol family.
_MAGIC = "repro-resident"

#: Frame header: 8-byte big-endian unsigned body length.
_HEADER = struct.Struct(">Q")

#: Sanity bound on a frame body; a longer length means a corrupt header.
_MAX_FRAME_BYTES = 1 << 40


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``"HOST:PORT"`` into ``(host, port)``; raises ``ValueError``."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"transport address must look like 'HOST:PORT', got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"transport address port must be an integer, got {address!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"transport address port out of range: {address!r}")
    return host, port


class TcpChannel(SlotChannel):
    """One slot's connection, speaking length-prefixed frames over TCP.

    ``read_timeout`` bounds how long a *started* frame may stall mid-body
    (``None`` = forever); the wait for a frame to begin is always unbounded,
    because an idle slot legitimately stays silent between requests.  A
    truncated frame therefore surfaces as ``OSError``/``TimeoutError`` rather
    than a hang, and a cleanly closed peer as ``EOFError`` — the same
    split ``multiprocessing.Connection`` uses.
    """

    def __init__(self, sock: socket.socket, read_timeout: Optional[float] = None) -> None:
        self._sock = sock
        self.read_timeout = read_timeout
        # The protocol is strict request/reply per slot; disable Nagle so
        # small frames (acks, pull_params of tiny models) don't sit in the
        # kernel waiting to coalesce with bytes that are never coming.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _recv_exact(self, nbytes: int, first_blocking: bool) -> bytes:
        chunks = []
        remaining = nbytes
        first = True
        while remaining:
            self._sock.settimeout(
                None if (first and first_blocking) else self.read_timeout
            )
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                if first:
                    raise EOFError("peer closed the connection")
                raise OSError(
                    f"connection closed mid-frame ({nbytes - remaining} of "
                    f"{nbytes} bytes received)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
            first = False
        return b"".join(chunks)

    def send_bytes(self, data: bytes) -> None:
        """Write one frame (header + body); ``OSError`` family on failure."""
        self._sock.settimeout(None)
        self._sock.sendall(_HEADER.pack(len(data)) + data)

    def recv_bytes(self) -> bytes:
        """Block for and return one whole frame body; ``EOFError`` on close."""
        header = self._recv_exact(_HEADER.size, first_blocking=True)
        (length,) = _HEADER.unpack(header)
        if length > _MAX_FRAME_BYTES:
            raise OSError(f"corrupt frame header: claimed body of {length} bytes")
        if length == 0:
            return b""
        return self._recv_exact(length, first_blocking=False)

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether frame bytes are ready to read within ``timeout`` seconds."""
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):  # closed socket
            return True  # let recv_bytes surface the real error
        return bool(ready)

    def fileno(self) -> int:
        """The socket's descriptor (``-1`` once closed)."""
        return self._sock.fileno()

    def close(self) -> None:
        """Shut the connection down (idempotent)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _handshake_dump(payload: dict) -> bytes:
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


class HandshakeRefused(TransportError):
    """The server explicitly refused a worker's handshake.

    ``retry`` mirrors the refusal frame's ``"retry"`` flag: a *retriable*
    refusal means the server expects to accept the worker shortly (e.g. a
    rebalance boundary has not been reached yet) and the worker host should
    back off and re-dial instead of giving up.
    """

    def __init__(self, message: str, retry: bool = False) -> None:
        super().__init__(message)
        #: Whether the server invited the worker to retry after a backoff.
        self.retry = retry


def client_handshake(channel: TcpChannel) -> dict:
    """Introduce a worker to the server; return its slot assignment.

    Sends ``{magic, protocol}`` and validates the server's reply, which
    carries ``slot_index``, ``num_slots``, the pool ``session`` nonce and —
    for pools with elastic membership — the membership ``epoch`` the worker
    is joining at.  Raises :class:`HandshakeRefused` on an explicit refusal
    (``retry`` mirrors the server's invitation to re-dial) and
    :class:`TransportError` on a protocol mismatch.
    """
    channel.send_bytes(_handshake_dump({"magic": _MAGIC, "protocol": PROTOCOL_VERSION}))
    reply = pickle.loads(channel.recv_bytes())
    if reply.get("error"):
        raise HandshakeRefused(
            f"server refused worker connection: {reply['error']}",
            retry=bool(reply.get("retry")),
        )
    if reply.get("magic") != _MAGIC or reply.get("protocol") != PROTOCOL_VERSION:
        raise TransportError(
            f"handshake reply mismatch: expected {_MAGIC!r} v{PROTOCOL_VERSION}, "
            f"got {reply.get('magic')!r} v{reply.get('protocol')!r}"
        )
    return reply


def _server_handshake(
    channel: TcpChannel,
    slot_index: int,
    num_slots: int,
    session: str,
    epoch: int = 0,
) -> None:
    """Validate a connecting worker's hello and assign it a slot.

    ``epoch`` is the pool's membership epoch at assignment time (0 for the
    founding accept loop, bumped for every later joiner): together with the
    ``session`` nonce it versions the re-handshake, so a late joiner knows it
    attached to a live incarnation mid-run and starts with no resident state
    (the server's install tracking for its keys begins empty by construction).
    """
    hello = pickle.loads(channel.recv_bytes())
    if hello.get("magic") != _MAGIC or hello.get("protocol") != PROTOCOL_VERSION:
        refusal = (
            f"expected {_MAGIC!r} protocol v{PROTOCOL_VERSION}, got "
            f"{hello.get('magic')!r} v{hello.get('protocol')!r}"
        )
        try:
            channel.send_bytes(_handshake_dump({"error": refusal}))
        except OSError:  # pragma: no cover - peer already gone
            pass
        raise TransportError(
            f"worker handshake failed for slot {slot_index}: {refusal}",
            slot_index=slot_index,
        )
    channel.send_bytes(
        _handshake_dump(
            {
                "magic": _MAGIC,
                "protocol": PROTOCOL_VERSION,
                "slot_index": slot_index,
                "num_slots": num_slots,
                "session": session,
                "epoch": epoch,
            }
        )
    )


class TcpTransport(Transport):
    """Pool slots over TCP connections (loopback-spawned or external hosts).

    With ``address=None`` the transport binds ``127.0.0.1:0`` and spawns one
    local worker-host process per slot — drop-in for the pipe transport, but
    every byte crosses a real socket.  With an explicit ``"HOST:PORT"`` it
    binds there and waits (up to ``connect_timeout``) for externally started
    ``repro.runtime.worker_host`` processes; :meth:`listen` exposes the bound
    address early so callers can print it before blocking in accept.
    """

    name = "tcp"
    supports_join = True

    def __init__(
        self,
        address: Optional[str] = None,
        spawn_workers: Optional[bool] = None,
        connect_timeout: float = 30.0,
        read_timeout: Optional[float] = None,
        accept_joiners: bool = False,
    ) -> None:
        super().__init__(read_timeout=read_timeout)
        self.address = address
        #: Spawn local worker processes at open?  Defaults to ``True`` for
        #: loopback (no address) and ``False`` when an address is given
        #: (the workers are someone else's processes on some other machine).
        self.spawn_workers = (address is None) if spawn_workers is None else spawn_workers
        self.connect_timeout = connect_timeout
        #: Keep the listener open after the founding accepts so late joiners
        #: (``worker_host --connect`` started mid-run) can attach.  Set by
        #: the backend when an elastic membership policy is active; the
        #: default preserves the fail-stop behavior of closing the listener
        #: as soon as the pool is complete.
        self.accept_joiners = accept_joiners
        #: ``(host, port)`` actually bound, available after :meth:`listen`.
        self.bound_address: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._processes: List = []
        #: Session nonce of the current pool incarnation (set at open).
        self._session: Optional[str] = None
        #: Membership epoch: bumped once per post-open joiner.
        self._epoch = 0

    def listen(self, num_slots: int) -> Tuple[str, int]:
        """Bind the listener (if not yet bound) and return ``(host, port)``."""
        if self._listener is None:
            host, port = parse_address(self.address) if self.address else ("127.0.0.1", 0)
            self._listener = socket.create_server((host, port), backlog=max(num_slots, 1))
            self.bound_address = (host, self._listener.getsockname()[1])
        return self.bound_address

    def _spawn_local_workers(self, num_slots: int) -> None:
        # Lazy import: worker_host imports the protocol layer, which imports
        # this package — resolving it at spawn time keeps imports acyclic.
        from .. import worker_host

        ctx = multiprocessing.get_context()
        for _ in range(num_slots):
            process = ctx.Process(
                target=worker_host.run_worker,
                args=(self.bound_address,),
                kwargs={"connect_timeout": self.connect_timeout},
                daemon=True,
            )
            process.start()
            self._processes.append(process)

    def _open_channels(self, num_slots: int) -> List[TcpChannel]:
        self.listen(num_slots)
        if self.spawn_workers:
            self._spawn_local_workers(num_slots)
        session = os.urandom(8).hex()
        channels: List[TcpChannel] = []
        self._listener.settimeout(self.connect_timeout)
        try:
            for slot_index in range(num_slots):
                try:
                    sock, _ = self._listener.accept()
                except (socket.timeout, TimeoutError) as exc:
                    raise TransportError(
                        f"timed out after {self.connect_timeout}s waiting for "
                        f"worker connections ({slot_index} of {num_slots} "
                        f"connected to {self.bound_address[0]}:{self.bound_address[1]})",
                        slot_index=slot_index,
                    ) from exc
                channel = TcpChannel(sock, read_timeout=self.read_timeout)
                _server_handshake(channel, slot_index, num_slots, session)
                channels.append(channel)
        except BaseException:
            for channel in channels:
                channel.close()
            self.close_listener()
            raise
        self._session = session
        self._epoch = 0
        if not self.accept_joiners:
            self.close_listener()
        return channels

    def _accept_joiner(self, timeout: float) -> Optional[int]:
        """Accept and re-handshake one pending connection; ``None`` if none."""
        self._listener.settimeout(max(timeout, 0.0) or 0.000001)
        try:
            sock, _ = self._listener.accept()
        except (socket.timeout, TimeoutError, BlockingIOError):
            return None
        channel = TcpChannel(sock, read_timeout=self.read_timeout)
        slot_index = self.num_slots
        try:
            _server_handshake(
                channel,
                slot_index,
                self.num_slots + 1,
                self._session,
                epoch=self._epoch + 1,
            )
        except (TransportError, OSError, EOFError, pickle.UnpicklingError):
            # A joiner that cannot complete the versioned re-handshake is
            # refused without affecting the pool.
            channel.close()
            return None
        self._epoch += 1
        return self._adopt_channel(channel)

    def poll_joiner(self, timeout: float = 0.0) -> Optional[int]:
        """Admit one late ``worker_host --connect`` joiner, if one is waiting.

        Requires the listener to still be open (``accept_joiners=True`` at
        open time); otherwise there is no join path and the result is
        ``None``.  A successful admission appends a channel (existing slot
        indices never renumber) and bumps the membership epoch carried by the
        re-handshake.
        """
        if self._listener is None or self._channels is None:
            return None
        return self._accept_joiner(timeout)

    def open_slot(self) -> int:
        """Build one replacement slot: spawn (loopback) and accept a worker.

        In loopback mode a fresh local worker-host process is spawned first;
        in external mode the call simply waits up to ``connect_timeout`` for
        a worker started elsewhere.  Raises :class:`TransportError` when no
        worker connects in time or the listener is closed.
        """
        if self._listener is None:
            raise TransportError(
                "tcp transport cannot open a replacement slot: listener closed "
                "(open the transport with accept_joiners=True)"
            )
        if self.spawn_workers:
            self._spawn_local_workers(1)
        slot_index = self._accept_joiner(self.connect_timeout)
        if slot_index is None:
            raise TransportError(
                f"timed out after {self.connect_timeout}s waiting for a "
                "replacement worker connection"
            )
        return slot_index

    def close_listener(self) -> None:
        """Close the accept socket; established channels are unaffected."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _shutdown(self, channels: List[TcpChannel]) -> None:
        self.close_listener()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=5)
        self._processes = []
