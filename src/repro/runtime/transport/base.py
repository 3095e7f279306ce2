"""Transport interfaces for the resident-pool wire protocol.

The resident protocol (:mod:`repro.runtime.resident`) speaks in pickled
``(op, payload)`` request messages and ``("ok"/"err", payload)`` replies; it
does not care *how* those bytes reach a pool slot.  This module defines the
seam between the two concerns:

* :class:`SlotChannel` — one bidirectional, ordered, message-framed byte
  stream to a single pool slot.  ``multiprocessing.Connection`` satisfies the
  interface structurally (``send_bytes`` / ``recv_bytes`` / ``fileno`` /
  ``close``), which is exactly why the pipe transport can hand out raw
  ``Connection`` objects and stay bitwise identical to the pre-refactor
  backend.
* :class:`Transport` — owns the pool's channels (and whatever processes or
  sockets back them), plus the shared async-writer machinery that lets the
  backend queue large sends to *busy* slots without blocking the trainer
  thread (see :meth:`Transport.send_async`).
* :class:`TransportError` — the single error type the backend raises for any
  wire-level failure, carrying the slot index and the in-flight op so pool
  deaths no longer lose *which* slot and operation died.

Concrete transports register themselves in a small name registry
(:func:`register_transport` / :func:`create_transport`), mirroring the
backend registry one level up.
"""

from __future__ import annotations

import queue
import threading
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "TRANSPORTS",
    "TransportError",
    "SlotChannel",
    "Transport",
    "register_transport",
    "create_transport",
]

#: Names of the available transports, in documentation order.
TRANSPORTS = ("pipe", "tcp")

#: Registry mapping transport name -> factory taking keyword options.
_REGISTRY: Dict[str, Callable[..., "Transport"]] = {}


def register_transport(name: str, factory: Callable[..., "Transport"]) -> None:
    """Register a transport factory under ``name`` (used by :func:`create_transport`)."""
    _REGISTRY[name] = factory


def create_transport(name: str, **options) -> "Transport":
    """Instantiate a transport by name (via the registry).

    Keyword ``options`` are forwarded to the factory; unknown names raise
    with the list of registered transports, mirroring
    :func:`repro.runtime.backend.create_backend`.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"Unknown transport {name!r}; expected one of {sorted(_REGISTRY) or TRANSPORTS}"
        )
    return factory(**options)


class TransportError(RuntimeError):
    """A wire-level failure on the path to a pool slot.

    Subclasses :class:`RuntimeError` so pre-existing callers catching the
    broad type keep working; carries :attr:`slot_index` and :attr:`op` so
    diagnostics can name exactly which slot and in-flight operation died
    (``None`` when unknown, e.g. a connect-phase failure).
    """

    def __init__(
        self,
        message: str,
        slot_index: Optional[int] = None,
        op: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        #: Index of the pool slot whose channel failed (``None`` if unknown).
        self.slot_index = slot_index
        #: Protocol op that was in flight when the failure surfaced.
        self.op = op


class SlotChannel(ABC):
    """One ordered, message-framed byte stream to a single pool slot.

    The contract matches ``multiprocessing.Connection`` (which implements it
    structurally and is used as-is by the pipe transport): messages are
    delivered whole and in order, ``recv_bytes`` raises :class:`EOFError` on
    a cleanly closed peer and :class:`OSError` on anything uglier, and
    ``fileno`` names a descriptor that turns readable exactly when
    ``recv_bytes`` has something to return (a message or the peer's EOF) —
    what the backend's one wait loop blocks on.
    """

    @abstractmethod
    def send_bytes(self, data: bytes) -> None:
        """Write one framed message; raises ``OSError`` family on failure."""

    @abstractmethod
    def recv_bytes(self) -> bytes:
        """Block for and return one whole message; ``EOFError`` on peer close."""

    @abstractmethod
    def fileno(self) -> int:
        """Descriptor to wait on for readability; negative or ``OSError`` once closed."""

    @abstractmethod
    def close(self) -> None:
        """Release the channel's resources (idempotent)."""


class Transport(ABC):
    """Factory and owner of the pool's slot channels.

    Lifecycle: :meth:`open` builds ``num_slots`` channels exactly once (the
    backend opens lazily on first use); :meth:`close` drains the async writer
    and tears the channels — and any processes or sockets behind them — back
    down.  A later :meth:`open` builds fresh channels (new processes /
    connections): resident state never survives a close, matching the pool's
    fail-stop discipline.

    The async-writer machinery lives here because every transport needs it
    for the same reason: a large dispatch to a slot that is *busy computing*
    can fill the channel's buffer while the slot is itself blocked writing a
    large reply — a send/send deadlock.  ``send_async`` queues the write on a
    daemon thread; the backend writes directly only to slots with nothing in
    flight, so per-slot FIFO order is preserved, and looks at
    :meth:`take_writer_error` while waiting on replies that a failed async
    send may mean never arrive.
    """

    #: Transport name (one of :data:`TRANSPORTS`).
    name: str = "abstract"
    #: Whether slots can be added after :meth:`open` (elastic membership):
    #: :meth:`open_slot` builds replacement capacity on demand and
    #: :meth:`poll_joiner` admits externally initiated late joiners.
    supports_join: bool = False

    def __init__(self, read_timeout: Optional[float] = None) -> None:
        #: Max seconds to wait for a slot's reply once requested (``None`` =
        #: wait forever).  Consulted by the backend's receive loop; a timeout
        #: is how a dropped or truncated frame surfaces as a clean
        #: :class:`TransportError` instead of a hang.  The clock includes the
        #: slot's compute time for the op, so production values should
        #: comfortably exceed the slowest expected step.
        self.read_timeout = read_timeout
        self._channels: Optional[List[SlotChannel]] = None
        self._write_queue: Optional["queue.Queue"] = None
        self._writer: Optional[threading.Thread] = None
        self._writer_error: Optional[Tuple[Optional[int], str]] = None

    # -- channel lifecycle ------------------------------------------------------
    @abstractmethod
    def _open_channels(self, num_slots: int) -> List[SlotChannel]:
        """Build and return the slot channels (called once, from :meth:`open`)."""

    def _shutdown(self, channels: List[SlotChannel]) -> None:
        """Tear down transport internals after the channels are closed."""

    def open(self, num_slots: int) -> None:
        """Open the transport with ``num_slots`` channels (idempotent)."""
        if self._channels is None:
            self._channels = self._open_channels(num_slots)

    @property
    def started(self) -> bool:
        """Whether :meth:`open` has built the channels."""
        return self._channels is not None

    @property
    def num_slots(self) -> int:
        """Number of open slot channels (0 before :meth:`open`)."""
        return 0 if self._channels is None else len(self._channels)

    def channel(self, slot_index: int) -> SlotChannel:
        """The channel serving ``slot_index`` (transport must be open)."""
        if self._channels is None:
            raise TransportError(
                f"{self.name} transport is not open", slot_index=slot_index
            )
        return self._channels[slot_index]

    def _adopt_channel(self, channel: SlotChannel) -> int:
        """Append one channel opened after :meth:`open`; return its slot index.

        Used by the elastic-membership join paths (:meth:`open_slot` /
        :meth:`poll_joiner` in concrete transports): slot indices are
        append-only, so existing channels never renumber.
        """
        if self._channels is None:
            raise TransportError(f"{self.name} transport is not open")
        self._channels.append(channel)
        return len(self._channels) - 1

    def open_slot(self) -> int:
        """Build one replacement slot channel; return its index.

        Only transports with :attr:`supports_join` implement this (the pipe
        transport respawns a local slot process; loopback tcp spawns and
        accepts a fresh worker).  Externally served transports may raise
        :class:`TransportError` when no replacement can be built locally.
        """
        raise TransportError(f"{self.name} transport cannot open slots after start")

    def poll_joiner(self, timeout: float = 0.0) -> Optional[int]:
        """Admit one externally initiated late joiner, if any is waiting.

        Returns the new channel's slot index, or ``None`` when no joiner
        arrived within ``timeout`` seconds.  The default transport has no
        join path and always returns ``None``.
        """
        return None

    def close(self) -> None:
        """Stop the writer, close every channel and release backing resources."""
        self.stop_writer()
        channels, self._channels = self._channels, None
        if channels is not None:
            for channel in channels:
                try:
                    channel.close()
                except Exception:  # pragma: no cover - defensive cleanup
                    pass
            self._shutdown(channels)

    # -- async writer -----------------------------------------------------------
    def _writer_loop(self) -> None:
        """Drain the async-send queue; record (never raise) send failures."""
        while True:
            item = self._write_queue.get()
            if item is None:
                return
            slot_index, channel, data = item
            try:
                channel.send_bytes(data)
            except Exception as exc:
                if self._writer_error is None:
                    self._writer_error = (
                        slot_index,
                        f"async send to pool slot {slot_index} failed: {exc!r}",
                    )

    def send_async(self, slot_index: int, data: bytes) -> None:
        """Queue ``data`` for the writer thread instead of writing inline.

        The blocking write moves off the trainer thread so a dispatch to a
        busy slot can never deadlock against that slot's own large reply.
        Failures are recorded for :meth:`take_writer_error` rather than
        raised — the writer has no caller to raise into.
        """
        channel = self.channel(slot_index)
        if self._writer is None or not self._writer.is_alive():
            self._write_queue = queue.Queue()
            self._writer = threading.Thread(
                target=self._writer_loop, name="resident-send", daemon=True
            )
            self._writer.start()
        self._write_queue.put((slot_index, channel, data))

    def take_writer_error(self) -> Optional[Tuple[Optional[int], str]]:
        """Pop the recorded async-send failure, if any: ``(slot_index, reason)``."""
        error, self._writer_error = self._writer_error, None
        return error

    def stop_writer(self) -> None:
        """Stop the writer thread, letting queued sends drain or fail first."""
        if self._writer is not None:
            self._write_queue.put(None)
            self._writer.join(timeout=5)
            self._writer = None
            self._write_queue = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r}, slots={self.num_slots})"
