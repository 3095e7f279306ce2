"""The slot side of the resident wire protocol: one serving loop per pool slot.

:func:`serve_slot` runs in pool processes (the pipe transport's children)
and in remote worker hosts (:mod:`repro.runtime.worker_host`).  It knows the
op table and the program registry — and nothing of the owner-side
backend, so a worker host imports it without importing the pool.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any, Dict

import numpy as np

from .programs import get_program

__all__ = ["serve_slot"]


def serve_slot(channel) -> None:
    """Serve resident-state requests on ``channel`` until EOF or ``close``.

    The slot side of the wire protocol, transport-agnostic: ``channel`` is
    any :class:`~repro.runtime.transport.SlotChannel` — the child end of a
    ``multiprocessing`` pipe for the local pool, a framed TCP connection for
    :mod:`repro.runtime.worker_host`.

    Residents are stored as ``key -> [program_name, epoch, state]``;
    generator copies for resident-side generation live in a separate
    ``key -> generator`` map (they carry no epoch — the caller ships current
    parameters with every request).  An install is the state object itself,
    unpickled with the frame that carries it.  Every reply is ``("ok",
    payload)`` or ``("err", traceback_text)``; the server re-raises errors, so
    a failure in worker code surfaces in the trainer with the slot traceback
    attached.
    """
    residents: Dict[Any, list] = {}
    generators: Dict[Any, Any] = {}
    while True:
        try:
            raw = channel.recv_bytes()
        except (EOFError, OSError):
            break
        op, payload = pickle.loads(raw)
        if op == "close":
            break
        try:
            if op == "run":
                out = []
                for key, program_name, epoch, install, step_payload in payload:
                    if install is not None:
                        residents[key] = [program_name, epoch, install]
                    entry = residents.get(key)
                    if entry is None:
                        raise RuntimeError(
                            f"no resident state for worker {key!r} and no "
                            "install payload shipped"
                        )
                    if entry[1] != epoch:
                        raise RuntimeError(
                            f"stale resident state for worker {key!r}: resident "
                            f"epoch {entry[1]}, trainer epoch {epoch} (state was "
                            "mutated outside the pool without re-install)"
                        )
                    out.append(get_program(entry[0]).step(entry[2], step_payload))
                reply = ("ok", out)
            elif op == "generate":
                key, install, params, g_inputs = payload
                if install is not None:
                    generators[key] = install
                generator = generators.get(key)
                if generator is None:
                    raise RuntimeError(
                        f"no resident generator {key!r} and no install payload shipped"
                    )
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
                reply = ("ok", out)
            elif op == "pull_params":
                out = {}
                for key in payload:
                    entry = residents[key]
                    out[key] = get_program(entry[0]).pull_params(entry[2])
                reply = ("ok", out)
            elif op in ("pull_mirror", "pull_state"):
                out = {}
                for key in payload:
                    entry = residents[key]
                    mirror = get_program(entry[0]).mirror
                    out[key] = entry[2] if mirror is None else mirror(entry[2])
                reply = ("ok", out)
                if op == "pull_state":
                    # Reclaim is "mirror, then drop".
                    for key in payload:
                        residents.pop(key, None)
            elif op == "push_params":
                for key, params in payload.items():
                    entry = residents[key]
                    get_program(entry[0]).push_params(entry[2], params)
                reply = ("ok", None)
            else:
                raise RuntimeError(f"unknown resident-pool op {op!r}")
        except BaseException:
            reply = ("err", traceback.format_exc())
        try:
            channel.send_bytes(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
        except (BrokenPipeError, OSError):
            break
