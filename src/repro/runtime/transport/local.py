"""Local pipe transport: the pre-refactor resident pool, verbatim.

One daemon child process per slot, connected over a duplex
``multiprocessing.Pipe``.  The parent-side ``Connection`` objects are handed
out as the slot channels directly — ``Connection`` implements the
:class:`~repro.runtime.transport.base.SlotChannel` contract structurally
(``send_bytes``/``recv_bytes``/``poll``/``close`` with the same framing and
error semantics) — so the bytes on the wire, the process topology and the
failure modes are bit-for-bit those of the pipe-welded backend this package
was split out of.

The serving-loop target is *injected* (``slot_main``) rather than imported:
the protocol layer lives in :mod:`repro.runtime.resident`, which imports this
module, and the transport must not import it back.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional

from .base import Transport, register_transport

__all__ = ["LocalPipeTransport"]


class LocalPipeTransport(Transport):
    """Pool slots as local child processes over ``multiprocessing`` pipes.

    ``slot_main`` is the child's serving loop, called with the child end of
    the pipe; :func:`repro.runtime.resident.serve_slot` in production, a
    stub in transport tests.
    """

    name = "pipe"
    supports_join = True

    def __init__(
        self,
        slot_main: Callable,
        read_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(read_timeout=read_timeout)
        self._slot_main = slot_main
        self._processes: List = []

    def _spawn_slot(self):
        """Start one slot process; return the parent end of its pipe."""
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(target=self._slot_main, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        self._processes.append(process)
        return parent_conn

    def _open_channels(self, num_slots: int) -> List:
        return [self._spawn_slot() for _ in range(num_slots)]

    def open_slot(self) -> int:
        """Respawn replacement capacity: one fresh local slot process."""
        return self._adopt_channel(self._spawn_slot())

    def _shutdown(self, channels: List) -> None:
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=5)
        self._processes = []
