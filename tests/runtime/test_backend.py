"""Unit tests for the execution-backend abstraction (repro.runtime.backend)."""

from __future__ import annotations

import time
import warnings

import pytest

from repro.core.lifecycle import close_quietly
from repro.runtime import (
    BACKENDS,
    ProcessBackend,
    ResidentBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
    default_max_workers,
)


def _square(x):
    """Module-level so the process backend can pickle it by reference."""
    return x * x


def _slow_then_fast(item):
    """Sleep longer for earlier items so completion order inverts task order."""
    index, delay = item
    time.sleep(delay)
    return index


class TestCreateBackend:
    def test_known_names(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("thread"), ThreadBackend)
        assert isinstance(create_backend("process"), ProcessBackend)
        assert isinstance(create_backend("resident"), ResidentBackend)

    def test_backend_names_match_registry(self):
        for name in BACKENDS:
            assert create_backend(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="Unknown backend"):
            create_backend("gpu")

    def test_invalid_max_workers_raises(self):
        with pytest.raises(ValueError, match="max_workers"):
            create_backend("thread", max_workers=0)

    def test_serial_ignores_max_workers(self):
        assert isinstance(create_backend("serial", max_workers=7), SerialBackend)

    def test_default_max_workers_positive(self):
        assert default_max_workers() >= 1


class TestMapOrdered:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_maps_in_task_order(self, name):
        with create_backend(name, max_workers=2) as backend:
            assert backend.map_ordered(_square, list(range(8))) == [
                x * x for x in range(8)
            ]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_and_singleton(self, name):
        with create_backend(name, max_workers=2) as backend:
            assert backend.map_ordered(_square, []) == []
            assert backend.map_ordered(_square, [3]) == [9]

    def test_thread_results_ordered_despite_completion_order(self):
        # Earlier tasks sleep longer, so they *finish* last; map_ordered must
        # still return results in task order (the merge-phase invariant).
        items = [(i, 0.03 * (4 - i)) for i in range(4)]
        with ThreadBackend(max_workers=4) as backend:
            assert backend.map_ordered(_slow_then_fast, items) == [0, 1, 2, 3]


class TestLifecycle:
    def test_pool_is_lazy(self):
        backend = ThreadBackend(max_workers=2)
        assert backend._pool is None
        backend.map_ordered(_square, [1, 2])
        assert backend._pool is not None
        backend.close()
        assert backend._pool is None

    def test_reusable_after_close(self):
        backend = ThreadBackend(max_workers=2)
        assert backend.map_ordered(_square, [1, 2]) == [1, 4]
        backend.close()
        assert backend.map_ordered(_square, [2, 3]) == [4, 9]
        backend.close()

    def test_close_without_use_is_noop(self):
        ThreadBackend(max_workers=2).close()
        SerialBackend().close()

    def test_single_task_skips_pool_dispatch(self):
        backend = ThreadBackend(max_workers=2)
        assert backend.map_ordered(_square, [5]) == [25]
        # The shortcut ran inline, so no pool was ever created.
        assert backend._pool is None


def test_close_quietly_swallows_close_errors_silently():
    # The owners' GC / interpreter-exit finalizer: a shutdown-time failure
    # must neither surface nor warn.
    class _ExplodingBackend:
        closed = 0

        def close(self) -> None:
            self.closed += 1
            raise RuntimeError("boom")

    target = _ExplodingBackend()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        close_quietly(target)
    assert target.closed == 1
