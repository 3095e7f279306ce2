"""Resident worker programs: the named behaviours pool slots execute.

A :class:`ResidentProgram` bundles what a slot runs for one trainer family —
the per-iteration ``step`` plus the flat-parameter ``pull``/``push`` and the
optional end-of-run ``mirror`` view.  Programs are looked up by name on the
slot side (:func:`repro.runtime.slot.serve_slot`), so the registry lives
apart from both the owner-side backend and the slot loop that consult it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

__all__ = ["ResidentProgram", "register_program", "get_program"]


@dataclass(frozen=True)
class ResidentProgram:
    """Named behaviour executed inside pool processes for one trainer family.

    ``step`` mutates the resident state in place and returns the light-weight
    per-iteration result; ``pull_params``/``push_params`` read/write the flat
    parameter vectors exchanged at swap/round boundaries without disturbing
    the rest of the resident state.  ``mirror`` (optional) extracts the
    light-weight view served by :meth:`ResidentBackend.pull_mirror` (pool
    stays warm) and :meth:`ResidentBackend.pull_state` (pool drops the
    resident) — typically models, optimizer moments and RNG/sampler cursors,
    but *not* bulky immutable payloads like dataset shards, so bringing
    state home does not scale with shard bytes; when ``None`` the full
    resident state is returned instead.

    ``prepare`` (optional) does in a slot's idle time what of the next ``step``
    needs only the state, kept in it for that step; ``rollback`` undoes it.
    """

    name: str
    step: Callable[[Any, Any], Any]
    pull_params: Callable[[Any], Any]
    push_params: Callable[[Any, Any], None]
    mirror: Optional[Callable[[Any], Any]] = None
    prepare: Optional[Callable[[Any], None]] = None
    rollback: Callable[[Any], None] = lambda state: None


_PROGRAMS: Dict[str, ResidentProgram] = {}


def register_program(program: ResidentProgram) -> ResidentProgram:
    """Register a :class:`ResidentProgram` under its name (idempotent)."""
    _PROGRAMS[program.name] = program
    return program


def get_program(name: str) -> ResidentProgram:
    """Look up a registered program, importing the built-ins if needed."""
    if name not in _PROGRAMS:
        # The built-in MD-GAN / FL-GAN programs register themselves when
        # repro.runtime.tasks is imported; a freshly spawned pool process may
        # not have imported it yet.
        from . import tasks  # noqa: F401  (registration side effect)
    try:
        return _PROGRAMS[name]
    except KeyError:
        raise ValueError(
            f"Unknown resident program {name!r}; registered: {sorted(_PROGRAMS)}"
        ) from None
