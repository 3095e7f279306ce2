"""Install codec: resident install payloads with their large arrays in shared memory.

Install payloads (worker state with its dataset shard, generator copies with
their conv weight tensors) spill every large array into a
``multiprocessing.shared_memory`` segment instead of pushing it through the
slot channel, so install cost stops scaling with shard bytes.  Both halves
of that format live here: the owner encodes with :class:`_InstallPickler`
into an :class:`_ShmInstall` wrapper and later unlinks the segments
(:func:`_release_segments`); the slot decodes with :func:`_decode_install`,
attaching the segments by name, and detaches them again when the resident
that brought them in goes away (:func:`_try_detach_shm`).  Platforms without
POSIX shared memory — and transports whose endpoints do not share a kernel —
never build an :class:`_ShmInstall`; their installs ride the channel as
plain pickled bytes and :func:`_decode_install` passes them through.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

try:  # gate: platforms without POSIX shared memory fall back to pickling
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - all supported platforms have it
    _shared_memory = None

__all__ = ["SHM_INSTALL_DEFAULT", "DEFAULT_SHM_MIN_BYTES"]

#: Whether a backend built with ``shm_install=None`` ships installs via
#: shared memory (where the platform and transport allow it).
SHM_INSTALL_DEFAULT = True

#: Arrays below this many bytes ride the pipe; larger ones go through shm.
DEFAULT_SHM_MIN_BYTES = 1 << 16


# -- owner half: encode and release -------------------------------------------------


class _ShmInstall:
    """Wire wrapper for an install payload pre-pickled with shm spill.

    ``blob`` is the payload's pickle stream in which every large array was
    replaced by an :func:`_attach_shm_array` call; the slot process unpickles
    it with :func:`_decode_install`, attaching the segments by name.
    """

    __slots__ = ("blob",)

    def __init__(self, blob: bytes) -> None:
        self.blob = blob


class _InstallPickler(pickle.Pickler):
    """Pickler that spills large, C-contiguous arrays to shared memory.

    Every spilled array is copied once into a fresh ``SharedMemory`` segment
    (recorded in ``segments`` — the caller owns and eventually unlinks them)
    and pickled as a tiny attach handle instead of its bytes.  Everything
    else falls through to the default reducers.
    """

    def __init__(self, buffer, segments: List, min_bytes: int) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._segments = segments
        self._min_bytes = min_bytes

    def reducer_override(self, obj):
        """Spill qualifying ndarrays to shm; defer everything else."""
        if (
            type(obj) is np.ndarray
            and obj.nbytes >= self._min_bytes
            and obj.flags.c_contiguous
            and not obj.dtype.hasobject
        ):
            segment = _shared_memory.SharedMemory(create=True, size=obj.nbytes)
            self._segments.append(segment)
            view = np.ndarray(obj.shape, dtype=obj.dtype, buffer=segment.buf)
            view[...] = obj
            del view
            return (_attach_shm_array, (segment.name, obj.shape, obj.dtype.str))
        return NotImplemented


def _release_segments(segments: Iterable) -> None:
    """Close and unlink owned shared-memory segments (best effort)."""
    for segment in segments:
        try:
            segment.close()
        except Exception:  # pragma: no cover - defensive cleanup
            pass
        try:
            segment.unlink()
        except Exception:  # pragma: no cover - already unlinked / shutdown
            pass


# -- slot half: attach, decode, detach ----------------------------------------------

#: Child-process registry of attached segments, keyed by segment name, so the
#: mapping outlives any individual array view; entries are detached when the
#: resident that brought them in is replaced or dropped, and the remainder is
#: cleared when the slot exits.
_ATTACHED_SHM: Dict[str, Any] = {}

#: While :func:`_decode_install` unpickles one install payload, this is the
#: set collecting the segment names that payload attached (``None`` outside a
#: decode); the slot stores the names next to the resident so it can detach
#: exactly those mappings when the resident goes away.
_DECODING_SHM_NAMES: Optional[set] = None


def _attach_untracked(name: str):
    """Attach to a named segment without registering it with any tracker.

    The **parent** owns every segment (it registered at create time and
    unlinks on release); a pool child's attach must therefore not register
    at all — depending on fork timing the child either shares the parent's
    tracker (a duplicate registration that the parent's unlink would
    double-unregister) or has spawned its own (which would then unlink /
    warn about "leaked" segments it never owned at child exit).  Python
    3.13 exposes this as ``SharedMemory(track=False)``; on earlier versions
    the registration call is suppressed around the constructor, the
    standard workaround.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _attach_shm_array(name: str, shape, dtype_str: str) -> np.ndarray:
    """Rebuild an ndarray over the named shared-memory segment (child side)."""
    segment = _ATTACHED_SHM.get(name)
    if segment is None:
        segment = _attach_untracked(name)
        _ATTACHED_SHM[name] = segment
    if _DECODING_SHM_NAMES is not None:
        _DECODING_SHM_NAMES.add(name)
    return np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=segment.buf)


def _decode_install(payload) -> Tuple[Any, set]:
    """Unwrap an install payload; return ``(state, attached_segment_names)``.

    The names travel with the resident so the slot can detach exactly those
    shared-memory mappings once the resident is replaced or dropped — without
    them the mappings (whose names the parent has already unlinked) would pin
    tmpfs pages for the pool's whole lifetime.
    """
    global _DECODING_SHM_NAMES
    if isinstance(payload, _ShmInstall):
        _DECODING_SHM_NAMES = names = set()
        try:
            state = pickle.loads(payload.blob)
        finally:
            _DECODING_SHM_NAMES = None
        return state, names
    return payload, set()


def _try_detach_shm(names: Iterable[str]) -> List[str]:
    """Close attached segments whose arrays are gone; return the rest.

    A segment still referenced by a live array view (e.g. the request that
    dropped the resident is itself still holding the state while its reply is
    in flight) raises ``BufferError`` on close; such names are returned so
    the caller retries on a later message, when the references have died.
    """
    remaining: List[str] = []
    for name in names:
        segment = _ATTACHED_SHM.get(name)
        if segment is None:
            continue
        try:
            segment.close()
        except BufferError:
            remaining.append(name)
            continue
        _ATTACHED_SHM.pop(name, None)
    return remaining
