"""The slot side of the resident wire protocol: one frame handler per pool slot.

:class:`SlotHandler` answers one ``(op, payload)`` frame with its reply
payload; it knows the op table and the program registry, and nothing of the
owner-side backend or of bytes.  :func:`serve_slot` is the pickle/byte loop
around it, run in pool processes (the pipe transport's children), on pool
threads (``thread``) and in remote worker hosts
(:mod:`repro.runtime.worker_host`), so a worker host imports it without
importing the pool.  The inline slot (``serial``) calls a handler directly,
with the frame objects themselves.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import traceback
from typing import Any, Dict

import numpy as np

from .programs import get_program

__all__ = ["SlotHandler", "serve_slot", "batch_scheduling"]


class SlotHandler:
    """One slot's resident state and the op table that reads and writes it.

    Residents are stored as ``key -> [program_name, epoch, state]``;
    generator copies for resident-side generation live in a separate
    ``key -> generator`` map (they carry no epoch — the caller ships current
    parameters with every request).  An install is the state object itself,
    as the frame that carries it delivered it.  A failing op raises.
    """

    def __init__(self) -> None:
        self.residents: Dict[Any, list] = {}
        self.generators: Dict[Any, Any] = {}

    def __call__(self, op: str, payload):
        """Execute one frame; return its reply payload."""
        residents = self.residents
        if op == "run":
            out = []
            for key, program_name, epoch, install, step_payload in payload:
                if install is not None:
                    residents[key] = [program_name, epoch, install]
                entry = residents.get(key)
                if entry is None:
                    raise RuntimeError(
                        f"no resident state for worker {key!r} and no install payload shipped"
                    )
                if entry[1] != epoch:
                    raise RuntimeError(
                        f"stale resident state for worker {key!r}: resident "
                        f"epoch {entry[1]}, trainer epoch {epoch} (state was "
                        "mutated outside the pool without re-install)"
                    )
                out.append(get_program(entry[0]).step(entry[2], step_payload))
            return out
        if op == "generate":
            key, install, params, g_inputs = payload
            if install is not None:
                self.generators[key] = install
            generator = self.generators.get(key)
            if generator is None:
                raise RuntimeError(f"no resident generator {key!r} and no install payload shipped")
            if params is not None:
                generator.set_parameters(params)
            # One pass, a segment per batch: bitwise a forward per batch.
            sizes = [len(g_input) for g_input in g_inputs]
            g_input = g_inputs[0] if len(sizes) == 1 else np.concatenate(g_inputs)
            images = generator.forward(g_input, training=True, segments=sizes)
            out, start = [], 0
            for j, size in enumerate(sizes):
                out.append((images[start : start + size], generator.batch_stats(j)))
                start += size
            return out
        if op == "pull_params":
            return {
                key: get_program(residents[key][0]).pull_params(residents[key][2])
                for key in payload
            }
        if op in ("pull_mirror", "pull_state"):
            out = {}
            for key in payload:
                entry = residents[key]
                mirror = get_program(entry[0]).mirror
                out[key] = entry[2] if mirror is None else mirror(entry[2])
            if op == "pull_state":
                # Reclaim is "mirror, then drop".
                for key in payload:
                    residents.pop(key, None)
            return out
        if op == "push_params":
            for key, params in payload.items():
                entry = residents[key]
                get_program(entry[0]).push_params(entry[2], params)
            return None
        raise RuntimeError(f"unknown resident-pool op {op!r}")


def serve_slot(channel) -> None:
    """Serve resident-state requests on ``channel`` until EOF or ``close``.

    The byte loop around one :class:`SlotHandler`, transport-agnostic:
    ``channel`` is any :class:`~repro.runtime.transport.SlotChannel` — the
    child end of a ``multiprocessing`` pipe for the local pool, a framed TCP
    connection for :mod:`repro.runtime.worker_host`.  Every reply is
    ``("ok", payload)`` or ``("err", traceback_text)``; the server re-raises
    errors, so a failure in worker code surfaces in the trainer with the
    slot traceback attached.
    """
    handle = SlotHandler()
    while True:
        try:
            raw = channel.recv_bytes()
        except (EOFError, OSError):
            break
        op, payload = pickle.loads(raw)
        if op == "close":
            break
        try:
            reply = ("ok", handle(op, payload))
        except BaseException:
            reply = ("err", traceback.format_exc())
        try:
            channel.send_bytes(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
        except (BrokenPipeError, OSError):
            break


def batch_scheduling() -> None:
    """Put this slot process under ``SCHED_BATCH``, if any: woken, it does not preempt its owner."""
    if hasattr(os, "SCHED_BATCH"):
        with contextlib.suppress(OSError):
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
