"""Deterministic fault injection for transport tests (the chaos harness).

:class:`ChaosTransport` wraps any concrete transport and perturbs its
*outgoing* frames according to a :class:`ChaosSchedule` — a scripted (or
seed-generated, still fully deterministic) map from ``(slot, frame_index)``
to a fault:

* ``drop`` — the frame silently vanishes on the wire (the slot never sees
  the request; surfaces via the transport's ``read_timeout``),
* ``delay`` — the frame is written ``seconds`` late (stragglers, reordered
  completion),
* ``truncate`` — a prefix of the frame is written and the stream is then
  shut down (kills the peer mid-read; on channels without raw socket access
  the stream is simply closed, the closest equivalent),
* ``disconnect`` — the channel is closed at the op boundary, so the write
  fails exactly as against a dead slot.

Frames are counted per slot from the moment the wrapped channel is built
(i.e. after any connection handshake), so ``frame_index`` 0 is the first
protocol frame.  The schedule is consumed as it fires — each action applies
exactly once — which keeps multi-iteration chaos runs reproducible from a
single seed.  Tests may also arm a one-shot fault imperatively via
:meth:`ChaosChannel.force_next`, which is how the older ad-hoc
``_DropOnceChannel`` / ``_TruncateOnceChannel`` wrappers are expressed on
this harness.

This module is a *test* facility: nothing in the production path imports it,
and a schedule-free ``ChaosTransport`` is byte-for-byte transparent.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .base import SlotChannel, Transport

__all__ = ["ChaosAction", "ChaosSchedule", "ChaosChannel", "ChaosTransport"]

#: Fault kinds a schedule may carry, in documentation order.
CHAOS_KINDS = ("drop", "delay", "truncate", "disconnect")

#: Frame header used for raw truncation (mirrors the tcp transport's).
_HEADER = struct.Struct(">Q")


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault at a specific op boundary."""

    #: Pool slot whose channel misbehaves.
    slot: int
    #: 0-based index of the outgoing frame (per slot) the fault applies to.
    frame_index: int
    #: One of :data:`CHAOS_KINDS`.
    kind: str
    #: Delay length for ``kind="delay"`` (seconds).
    seconds: float = 0.05
    #: Fraction of the frame written before shutdown for ``kind="truncate"``.
    fraction: float = 0.5

    def __post_init__(self) -> None:
        """Validate the action."""
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"kind must be one of {CHAOS_KINDS}, got {self.kind!r}")


class ChaosSchedule:
    """A deterministic ``(slot, frame_index) -> fault`` script.

    Build one explicitly from :class:`ChaosAction` items, or derive one from
    a seed with :meth:`random` — the derivation uses its own
    ``random.Random(seed)`` instance, so the same seed always yields the
    same schedule regardless of global RNG state.
    """

    def __init__(self, actions: Tuple[ChaosAction, ...] = ()) -> None:
        self._by_key: Dict[Tuple[int, int], ChaosAction] = {}
        for action in actions:
            self._by_key[(action.slot, action.frame_index)] = action

    @classmethod
    def random(
        cls,
        seed: int,
        num_slots: int,
        num_frames: int,
        drop: float = 0.0,
        delay: float = 0.0,
        truncate: float = 0.0,
        disconnect: float = 0.0,
        delay_seconds: float = 0.05,
    ) -> "ChaosSchedule":
        """Derive a schedule from ``seed`` with per-frame fault rates."""
        rng = random.Random(seed)
        actions: List[ChaosAction] = []
        for slot in range(num_slots):
            for frame_index in range(num_frames):
                roll = rng.random()
                if roll < drop:
                    kind = "drop"
                elif roll < drop + delay:
                    kind = "delay"
                elif roll < drop + delay + truncate:
                    kind = "truncate"
                elif roll < drop + delay + truncate + disconnect:
                    kind = "disconnect"
                else:
                    continue
                actions.append(
                    ChaosAction(
                        slot=slot,
                        frame_index=frame_index,
                        kind=kind,
                        seconds=delay_seconds,
                    )
                )
        return cls(tuple(actions))

    def take(self, slot: int, frame_index: int) -> Optional[ChaosAction]:
        """Pop the action scheduled at ``(slot, frame_index)``, if any."""
        return self._by_key.pop((slot, frame_index), None)

    def __len__(self) -> int:
        """Number of actions that have not fired yet."""
        return len(self._by_key)


class ChaosChannel(SlotChannel):
    """Channel wrapper applying scheduled faults at send boundaries."""

    def __init__(self, inner: SlotChannel, schedule: ChaosSchedule, slot: int) -> None:
        self._inner = inner
        self._schedule = schedule
        self._slot = slot
        #: Outgoing frames seen so far (the next send has this index).
        self.frames_sent = 0
        self._forced: Optional[ChaosAction] = None

    def force_next(self, kind: str, seconds: float = 0.05, fraction: float = 0.5) -> None:
        """Arm a one-shot fault for the next outgoing frame (imperative API)."""
        self._forced = ChaosAction(
            slot=self._slot, frame_index=-1, kind=kind, seconds=seconds, fraction=fraction
        )

    def _truncate(self, data: bytes, fraction: float) -> None:
        sock = getattr(self._inner, "_sock", None)
        if sock is None:
            # No raw stream access (pipe channels frame atomically): the
            # closest observable fault is the stream dying mid-request.
            self._inner.close()
            return
        frame = _HEADER.pack(len(data)) + data
        sock.settimeout(None)
        sock.sendall(frame[: max(1, int(len(frame) * fraction))])
        sock.shutdown(socket.SHUT_WR)

    def send_bytes(self, data: bytes) -> None:
        """Write one frame, applying any fault scheduled at this boundary."""
        action = self._forced or self._schedule.take(self._slot, self.frames_sent)
        self._forced = None
        self.frames_sent += 1
        if action is None:
            self._inner.send_bytes(data)
        elif action.kind == "drop":
            return  # the frame vanishes on the wire
        elif action.kind == "delay":
            time.sleep(action.seconds)
            self._inner.send_bytes(data)
        elif action.kind == "truncate":
            self._truncate(data, action.fraction)
        else:  # disconnect
            self._inner.close()
            self._inner.send_bytes(data)  # surfaces the dead channel's OSError

    def recv_bytes(self) -> bytes:
        """Delegate to the wrapped channel."""
        return self._inner.recv_bytes()

    def fileno(self) -> int:
        """Delegate to the wrapped channel."""
        return self._inner.fileno()

    def close(self) -> None:
        """Delegate to the wrapped channel."""
        self._inner.close()


class ChaosTransport(Transport):
    """Transport wrapper injecting scheduled faults into any inner transport.

    The wrapper owns its *own* async writer (so chaos applies to queued
    sends too) and delegates channel construction, late-join admission and
    teardown to the wrapped transport, wrapping every channel it hands out.
    """

    def __init__(self, inner: Transport, schedule: Optional[ChaosSchedule] = None) -> None:
        super().__init__(read_timeout=inner.read_timeout)
        self.inner = inner
        self.schedule = schedule if schedule is not None else ChaosSchedule()
        self.name = f"chaos+{inner.name}"
        self.supports_join = inner.supports_join

    @property
    def accept_joiners(self) -> bool:
        """Whether the inner transport keeps its join path open (tcp only)."""
        return bool(getattr(self.inner, "accept_joiners", False))

    @accept_joiners.setter
    def accept_joiners(self, value: bool) -> None:
        if hasattr(self.inner, "accept_joiners"):
            self.inner.accept_joiners = value

    def _wrap(self, slot_index: int) -> ChaosChannel:
        return ChaosChannel(self.inner.channel(slot_index), self.schedule, slot_index)

    def _open_channels(self, num_slots: int) -> List[ChaosChannel]:
        self.inner.open(num_slots)
        return [self._wrap(index) for index in range(self.inner.num_slots)]

    def open_slot(self) -> int:
        """Open a replacement slot on the inner transport and wrap it."""
        return self._adopt_channel(self._wrap(self.inner.open_slot()))

    def poll_joiner(self, timeout: float = 0.0) -> Optional[int]:
        """Admit a late joiner through the inner transport, wrapped."""
        slot_index = self.inner.poll_joiner(timeout)
        if slot_index is None:
            return None
        return self._adopt_channel(self._wrap(slot_index))

    def kill_slot(self, slot_index: int) -> None:
        """Sever one slot's connection now (scripted kill, not at a boundary).

        Closes the inner channel — from the server's perspective exactly a
        dead peer — and, when the inner transport runs local slot processes
        indexed by slot (the pipe transport), terminates that process too.
        """
        self.inner.channel(slot_index).close()
        processes = getattr(self.inner, "_processes", None)
        if self.inner.name == "pipe" and processes is not None and slot_index < len(processes):
            process = processes[slot_index]
            if process.is_alive():
                process.terminate()

    def _shutdown(self, channels: List[ChaosChannel]) -> None:
        self.inner.close()
