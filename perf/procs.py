"""What the harness reads from ``/proc`` and ``/dev/shm`` (standard library only).

The supervisor uses these to find and stop what a run left behind; the
measuring process uses them for ``peak_rss_mb``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = ["process_table", "session_alive", "descendants", "peak_rss_mb", "orphan_segments"]

SHM_DIR = Path("/dev/shm")


def process_table() -> Dict[int, Tuple[str, int, int]]:
    """``pid -> (state, parent pid, session id)`` of every process."""
    table: Dict[int, Tuple[str, int, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid pgrp session ..."; comm may hold spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(entry)] = (fields[0], int(fields[1]), int(fields[3]))
    return table


def session_alive(session: int) -> bool:
    """Whether the session still holds a process that is not a zombie."""
    return any(state != "Z" and member == session for state, _, member in process_table().values())


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it."""
    table = process_table()
    found = [root]
    for pid in found:
        found.extend(child for child, (_, parent, _) in table.items() if parent == pid)
    return found


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and its live descendants, in MB."""
    total_kb = 0
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def orphan_segments(since: float) -> List[Path]:
    """Shared-memory segments created since ``since`` that no live process maps.

    Python names its POSIX segments ``psm_*``.  A live run (this one's
    sibling under a parallel test, say) maps its segments in the owner and
    the slots; a segment nobody maps was left behind by a process that died.
    The last 0.2 s are skipped: a segment exists for an instant before its
    creator maps it.
    """
    fresh = set()
    for path in SHM_DIR.glob("psm_*") if SHM_DIR.is_dir() else ():
        try:
            created = path.stat().st_ctime
        except OSError:
            continue
        if since <= created <= time.time() - 0.2:
            fresh.add(path.name)
    for pid in os.listdir("/proc") if fresh else ():
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/maps") as handle:
                    maps = handle.read()
            except OSError:
                continue
            fresh -= {name for name in fresh if name in maps}
    return [SHM_DIR / name for name in sorted(fresh)]
