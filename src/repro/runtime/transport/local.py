"""Local transports: slots as child processes, as threads of this process, or inline.

One slot per duplex ``multiprocessing.Pipe``.  The parent-side
``Connection`` objects are handed out as the slot channels directly —
``Connection`` implements the :class:`~repro.runtime.transport.base.SlotChannel`
contract structurally (``send_bytes``/``recv_bytes``/``poll``/``close`` with
the same framing and error semantics).  By default each slot loop runs in a
daemon child process; with ``threads=True`` it runs on a daemon thread of
the owner process instead (the ``thread`` backend), over the same pipes and
the same bytes.  :class:`InlineTransport` is the degenerate local case
(``serial``): one slot whose frame handler runs in the caller, with no pipe
and no bytes at all.

The serving-loop target is *injected* (``slot_main``) rather than imported:
the protocol layer lives in :mod:`repro.runtime.resident`, which imports this
module, and the transport must not import it back.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Callable, List, Optional

from ..slot import batch_scheduling
from .base import Transport

__all__ = ["InlineChannel", "InlineTransport", "LocalPipeTransport"]


def _serve_then_close(slot_main: Callable, conn, process: bool = False) -> None:
    """A slot's body: serve until EOF or ``close``, then release the pipe end.

    A slot process serves under the batch policy; a slot thread keeps its owner's.
    """
    if process:
        batch_scheduling()
    try:
        slot_main(conn)
    finally:
        conn.close()


class LocalPipeTransport(Transport):
    """Pool slots as local child processes (or threads) over ``multiprocessing`` pipes.

    ``slot_main`` is the slot's serving loop, called with the slot end of
    the pipe; :func:`repro.runtime.resident.serve_slot` in production, a
    stub in transport tests.  ``threads=True`` runs it on a thread of this
    process instead of a child process.
    """

    name = "pipe"
    supports_join = True

    def __init__(
        self,
        slot_main: Callable,
        read_timeout: Optional[float] = None,
        threads: bool = False,
    ) -> None:
        super().__init__(read_timeout=read_timeout)
        self._slot_main = slot_main
        self.threads = threads
        #: The slot processes, in slot order (empty with ``threads=True``).
        self._processes: List = []
        #: The slot threads, in slot order (empty without ``threads=True``).
        self._threads: List[threading.Thread] = []

    def _spawn_slot(self):
        """Start one slot process (or thread); return the parent end of its pipe."""
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        if self.threads:
            thread = threading.Thread(
                target=_serve_then_close,
                args=(self._slot_main, child_conn),
                name=f"resident-slot-{len(self._threads)}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            return parent_conn
        args = (self._slot_main, child_conn, True)
        process = ctx.Process(target=_serve_then_close, args=args, daemon=True)
        process.start()
        child_conn.close()
        self._processes.append(process)
        return parent_conn

    def _open_channels(self, num_slots: int) -> List:
        return [self._spawn_slot() for _ in range(num_slots)]

    def open_slot(self) -> int:
        """Respawn replacement capacity: one fresh local slot."""
        return self._adopt_channel(self._spawn_slot())

    def _shutdown(self, channels: List) -> None:
        # A slot thread ends on the close message or on the EOF the closed
        # parent ends raise; one still computing is a daemon and is left.
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=5)
        self._processes = []


class InlineChannel:
    """An inline slot: its frame handler, called in the caller's thread.

    The ledger hands ``call`` the frame objects themselves at post time,
    so nothing is pickled or copied, an install is the caller's own state
    objects, and the reply exists before the post returns.  There are no
    bytes to read and no descriptor to wait on.
    """

    def __init__(self, handler: Callable) -> None:
        #: ``(op, payload) -> reply payload``; a failing op raises as itself.
        self.call = handler

    def send_bytes(self, data: bytes) -> None:
        """The backend's close frame: the slot ends with the channel, nothing to send."""

    def close(self) -> None:
        """Nothing to release; the slot's state goes with the channel."""


class InlineTransport(Transport):
    """Pool slots that run inline in the caller (the ``serial`` backend).

    ``handler_factory`` builds one slot's frame handler;
    :class:`repro.runtime.slot.SlotHandler` in production.  Starts no thread
    and no process.
    """

    name = "inline"

    def __init__(self, handler_factory: Callable[[], Callable]) -> None:
        super().__init__()
        self._handler_factory = handler_factory

    def _open_channels(self, num_slots: int) -> List:
        return [InlineChannel(self._handler_factory()) for _ in range(num_slots)]
