"""The slot side of the resident wire protocol: one serving loop per pool slot.

:func:`serve_slot` runs in pool processes (the pipe transport's children)
and in remote worker hosts (:mod:`repro.runtime.worker_host`).  It knows the
op table, the program registry and the install codec — and nothing of the
owner-side backend, so a worker host imports it without importing the pool.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any, Dict, List

from .install_codec import _ATTACHED_SHM, _decode_install, _try_detach_shm
from .programs import get_program

__all__ = ["serve_slot"]


def serve_slot(channel) -> None:
    """Serve resident-state requests on ``channel`` until EOF or ``close``.

    The slot side of the wire protocol, transport-agnostic: ``channel`` is
    any :class:`~repro.runtime.transport.SlotChannel` — the child end of a
    ``multiprocessing`` pipe for the local pool, a framed TCP connection for
    :mod:`repro.runtime.worker_host`.

    Residents are stored as ``key -> [program_name, epoch, state,
    shm_names]``; generator copies for resident-side generation live in a
    separate ``key -> [generator, shm_names]`` map (they carry no epoch — the
    caller ships current parameters with every request).  The ``shm_names``
    record which shared-memory mappings each install brought in, so replacing
    or dropping a resident detaches them instead of pinning unlinked tmpfs
    pages for the pool's lifetime (over TCP installs never carry shm, so the
    sets are simply empty).  Every reply is ``("ok", payload)`` or
    ``("err", traceback_text)``; the server re-raises errors, so a failure in
    worker code surfaces in the trainer with the slot traceback attached.
    """
    residents: Dict[Any, list] = {}
    generators: Dict[Any, list] = {}
    pending_detach: List[str] = []
    while True:
        try:
            raw = channel.recv_bytes()
        except (EOFError, OSError):
            break
        # Retry mappings whose arrays were still referenced last time (the
        # dropping request's own reply holds the state until it is sent).
        pending_detach = _try_detach_shm(pending_detach)
        op, payload = pickle.loads(raw)
        if op == "close":
            break
        try:
            if op == "run":
                out = []
                for key, program_name, epoch, install, step_payload in payload:
                    if install is not None:
                        state, shm_names = _decode_install(install)
                        replaced = residents.get(key)
                        if replaced is not None:
                            pending_detach.extend(replaced[3])
                        residents[key] = [program_name, epoch, state, shm_names]
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
                    generator, shm_names = _decode_install(install)
                    replaced = generators.get(key)
                    if replaced is not None:
                        pending_detach.extend(replaced[1])
                    generators[key] = [generator, shm_names]
                entry = generators.get(key)
                if entry is None:
                    raise RuntimeError(
                        f"no resident generator {key!r} and no install payload shipped"
                    )
                generator = entry[0]
                if params is not None:
                    generator.set_parameters(params)
                out = []
                for g_input in g_inputs:
                    images = generator.forward(g_input, training=True)
                    out.append((images, generator.batch_stats()))
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
                        dropped = residents.pop(key, None)
                        if dropped is not None:
                            pending_detach.extend(dropped[3])
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
    # Drop residents first so no array view still exports the shm buffers,
    # then detach; the parent owns (and unlinks) the segments themselves.
    residents.clear()
    generators.clear()
    for segment in _ATTACHED_SHM.values():
        try:
            segment.close()
        except Exception:  # pragma: no cover - lingering exports at exit
            pass
    _ATTACHED_SHM.clear()
