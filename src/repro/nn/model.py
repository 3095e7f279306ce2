"""Sequential model container whose parameters live in one flat vector.

The container provides the three capabilities the distributed algorithms rely
on:

* ``forward`` / ``backward`` where the backward pass **returns the gradient
  with respect to the model input** (MD-GAN's error feedback, and the chain
  through the generator on the server);
* flat parameter get/set (``get_parameters`` / ``set_parameters``) used by
  FL-GAN's federated averaging and by MD-GAN's discriminator swaps — these
  model exactly what travels over the network.  A built model owns the
  contiguous ``params_flat`` / ``grads_flat`` and every layer's ``params`` /
  ``grads`` are views into them, so each whole-model operation is one vector
  operation; pickles carry the parameter vector once and no gradients;
* flat BatchNorm running statistics (``get_buffers`` / ``set_buffers``),
  which FL-GAN averages with the parameters;
* parameter-count reporting used by the analytic complexity models.

All parameters, activations and gradients live in the model's ``dtype``,
resolved at construction from the precision policy (float32 by default, see
:mod:`repro.nn.precision`); inputs are cast on entry (a no-op when callers
already supply policy-dtype arrays) and stay in that dtype throughout.

Every array that enters or leaves a model is C-contiguous: inside, conv
activations are batch-innermost views (:mod:`repro.nn.tensor_ops`) and
reductions sum in memory order, so one layout at the boundary is what keeps a
value that crossed a pipe bitwise equal to one handed over in-process.
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .layers import BatchNorm, Layer
from .precision import PrecisionLike, resolve_dtype

__all__ = ["Sequential"]


class Sequential:
    """A feed-forward stack of layers."""

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Optional[Tuple[int, ...]] = None,
        rng: Optional[np.random.Generator] = None,
        name: str = "model",
        dtype: PrecisionLike = None,
    ) -> None:
        self.layers: List[Layer] = list(layers)
        self.name = name
        self.dtype: np.dtype = resolve_dtype(dtype)
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        #: Parameters and gradients in :meth:`named_parameters` order; view shapes.
        self.params_flat = self.grads_flat = np.zeros(0, dtype=self.dtype)
        self.param_shapes: Tuple[Tuple[int, ...], ...] = ()
        if input_shape is not None:
            self.build(input_shape, rng or np.random.default_rng(0))

    # -- lifecycle ---------------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Build every layer for a per-sample ``input_shape``."""
        shape = tuple(int(s) for s in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            layer.dtype = self.dtype
            layer.build(shape, rng)
            shape = layer.output_shape
        self.output_shape = shape
        params = [p for _, p in self.named_parameters()]
        self.param_shapes = tuple(p.shape for p in params)
        self.params_flat = np.concatenate([np.zeros(0, self.dtype), *(p.ravel() for p in params)])
        self.grads_flat = np.zeros_like(self.params_flat)
        self._bind_views()
        self.built = True

    def _bind_views(self) -> None:
        """Rebind every layer's ``params`` / ``grads`` to views of the flat vectors."""
        slots = [(layer, name) for layer in self.layers for name in sorted(layer.params)]
        offset = 0
        for (layer, name), shape in zip(slots, self.param_shapes, strict=True):
            end = offset + math.prod(shape)
            layer.params[name] = self.params_flat[offset:end].reshape(shape)
            layer.grads[name] = self.grads_flat[offset:end].reshape(shape)
            offset = end

    def __getstate__(self) -> dict:
        # A pickle carries what a receiver reads: the parameter vector once
        # (layers keep only their parameter names), no gradients (every
        # accumulation starts from zero_grad()) and no per-sample forward
        # caches (each layer's _row_caches; a backward follows its own forward).
        state = self.__dict__.copy()
        if self.built:
            del state["grads_flat"]
            state["layers"] = [_bare_copy(layer) for layer in self.layers]
            for clone in state["layers"]:
                clone.params = dict.fromkeys(clone.params)
                clone.grads = {}
                for name in clone._row_caches:
                    setattr(clone, name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.built:
            self.grads_flat = np.zeros_like(self.params_flat)
            self._bind_views()

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError(f"Model {self.name!r} must be built before use; call build()")

    # -- computation -------------------------------------------------------
    def forward(
        self, x: np.ndarray, training: bool = True, segments: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Run the forward pass, caching intermediates for backward.

        ``segments`` — sample counts summing to ``len(x)`` — makes this one
        pass over several batches in a row: every output row, and every
        BatchNorm statistic (folded in segment order), is bitwise what
        separate forwards over the segments, in order, would give.  Random
        layers draw once, in C order, which is the separate draws' stream.
        ``None`` is one segment.
        """
        self._require_built()
        out = self.boundary(x)
        bounds = None if segments is None else _bounds(segments, len(out))
        for layer in self.layers:
            if layer.segmented_forward:
                out = layer.forward(out, training=training, segments=bounds)
            else:
                out = layer.forward(out, training=training)
        return self.boundary(out)

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass in evaluation mode (no dropout, running BN stats)."""
        return self.forward(x, training=False)

    def backward(
        self,
        grad_output: np.ndarray,
        *,
        param_grads: bool = True,
        input_grad: bool = True,
        segments: Optional[Sequence[int]] = None,
    ) -> Optional[np.ndarray]:
        """Backpropagate ``grad_output`` and return the input gradient.

        Parameter gradients are *accumulated* into each layer's ``grads``;
        call :meth:`zero_grad` before starting a fresh accumulation.  Pass
        the forward's ``segments``: each layer then adds each segment's
        gradient, computed as a separate backward would, in segment order.

        ``param_grads=False`` is the input-gradient-only pass (MD-GAN's error
        feedback): ``grads`` is left untouched and the returned gradient is
        bitwise the one the full pass returns.  ``input_grad=False`` is for
        callers that only want parameter gradients: the pass stops at the
        first layer that has parameters, skips that layer's input gradient,
        and returns ``None``.
        """
        self._require_built()
        grad = self.boundary(grad_output)
        bounds = None if segments is None else _bounds(segments, len(grad))
        layers = self.layers
        first = 0
        if not input_grad:
            # Nothing below the first layer that has parameters needs a gradient.
            first = next((i for i, layer in enumerate(layers) if layer.params), len(layers))
        for index in range(len(layers) - 1, first - 1, -1):
            layer = layers[index]
            if layer.params:
                grad = layer.backward(
                    grad,
                    param_grads=param_grads,
                    input_grad=input_grad or index > first,
                    segments=bounds,
                )
            else:
                grad = layer.backward(grad)
        return self.boundary(grad) if input_grad else None

    def snapshot(self, segment: Optional[Tuple[int, int, int]] = None) -> "Sequential":
        """This model frozen as its last forward left it, to backpropagate that forward later.

        Layers are shallow copies holding every backward cache by reference
        (forward only rebinds caches, see :class:`~repro.nn.layers.Layer`) and
        the very same ``params`` / ``grads`` dicts, so ``snapshot.backward``
        accumulates into this model's gradients — exact until its parameters change.
        ``segment=(index, start, stop)`` keeps only that segment of a segmented
        forward: the copy backpropagates it, and reports its :meth:`batch_stats`,
        as a forward over those rows alone would.
        """
        # Bare ``__dict__`` copies: ``copy.copy`` costs ~5x more per layer and,
        # through ``__getstate__``, would drop kept caches and parameter views.
        frozen = _bare_copy(self)
        frozen.layers = [_bare_copy(layer) for layer in self.layers]
        if segment is not None:
            for layer in frozen.layers:
                layer.restrict(*segment)
        return frozen

    def _norms(self) -> List[BatchNorm]:
        return [layer for layer in self.layers if isinstance(layer, BatchNorm)]

    def batch_stats(self, segment: int = 0) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Every BatchNorm's ``(mean, var)`` of segment ``segment`` of its last training forward."""
        return [layer.segment_stats[segment] for layer in self._norms()]

    def fold_batch_stats(self, stats: Sequence[Tuple[np.ndarray, np.ndarray]]) -> None:
        """Fold one forward's :meth:`batch_stats` into this model's running statistics."""
        for layer, (mean, var) in zip(self._norms(), stats):
            layer.fold(mean, var)

    def get_buffers(self) -> np.ndarray:
        """Every BatchNorm's running mean, then variance, as one flat vector (empty if none)."""
        self._require_built()
        stats = [s for layer in self._norms() for s in (layer.running_mean, layer.running_var)]
        return np.concatenate([np.zeros(0, self.dtype), *stats])

    def set_buffers(self, flat: np.ndarray) -> None:
        """Load the running statistics from a :meth:`get_buffers` vector (copied)."""
        buffers = self.get_buffers()
        self._write(buffers, flat, "Buffer")
        offset = 0
        for layer in self._norms():
            size = 2 * layer.running_mean.size
            layer.running_mean, layer.running_var = np.split(buffers[offset : offset + size], 2)
            offset += size

    def boundary(self, x: np.ndarray) -> np.ndarray:
        """``x`` as every value enters and leaves this model: C-contiguous, in its dtype."""
        return np.ascontiguousarray(x, dtype=self.dtype)

    def zero_grad(self) -> None:
        """Reset gradients of every layer."""
        self.grads_flat.fill(0.0)

    # -- parameter access ---------------------------------------------------
    def named_parameters(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(key, parameter_array)`` pairs in a deterministic order."""
        for idx, layer in enumerate(self.layers):
            for pname in sorted(layer.params):
                yield f"{idx}.{layer.name}.{pname}", layer.params[pname]

    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(self.params_flat.size)

    def get_parameters(self) -> np.ndarray:
        """Return a copy of all parameters as one flat policy-dtype vector."""
        self._require_built()
        return self.params_flat.copy()

    def set_parameters(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector, writing them in place."""
        self._write(self.params_flat, flat, "Parameter")

    def get_gradients(self) -> np.ndarray:
        """Return a copy of all gradients as one flat vector."""
        self._require_built()
        return self.grads_flat.copy()

    def set_gradients(self, flat: np.ndarray) -> None:
        """Load gradients from a flat vector (used by gradient aggregation)."""
        self._write(self.grads_flat, flat, "Gradient")

    def _write(self, buffer: np.ndarray, flat: np.ndarray, what: str) -> None:
        self._require_built()
        if np.size(flat) != buffer.size:
            raise ValueError(
                f"{what} vector has {np.size(flat)} values; model "
                f"{self.name!r} expects {buffer.size}"
            )
        buffer[...] = np.ravel(flat)

    # -- structural helpers --------------------------------------------------
    def clone_architecture(self) -> "Sequential":
        """Return an *unbuilt* copy sharing no state with this model.

        Layers are re-created through a shallow pickle-free copy: each layer
        class is re-instantiated from its constructor arguments captured in
        ``__dict__`` minus runtime state.  For simplicity (and because all
        repo layers follow it) the convention is that constructor arguments
        are stored verbatim as attributes.
        """
        new_layers = []
        for layer in self.layers:
            clone = copy.copy(layer)
            clone.params = {}
            clone.grads = {}
            clone.built = False
            clone.input_shape = None
            clone.output_shape = None
            clone.dtype = None
            new_layers.append(clone)
        return Sequential(new_layers, name=f"{self.name}_clone", dtype=self.dtype)

    def summary(self) -> str:
        """Human-readable layer/parameter summary (like ``keras.summary``)."""
        self._require_built()
        lines = [f"Model: {self.name}"]
        lines.append(f"{'layer':<28}{'output shape':<20}{'params':>12}")
        lines.append("-" * 60)
        for layer in self.layers:
            lines.append(f"{layer.name:<28}{str(layer.output_shape):<20}{layer.num_params:>12,}")
        lines.append("-" * 60)
        lines.append(f"Total parameters: {self.num_parameters:,}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = "built" if self.built else "unbuilt"
        return (
            f"Sequential(name={self.name!r}, layers={len(self.layers)}, "
            f"{status}, params={self.num_parameters if self.built else '?'})"
        )


def _bounds(segments: Sequence[int], n: int) -> Tuple[Tuple[int, int], ...]:
    """``(start, stop)`` rows of each segment."""
    ends = list(itertools.accumulate(segments))
    if not ends or min(segments) < 1 or ends[-1] != n:
        raise ValueError(f"segments {tuple(segments)} do not split a batch of {n} samples")
    return tuple(zip([0, *ends[:-1]], ends))


def _bare_copy(obj):
    """A new ``type(obj)`` sharing ``obj``'s attribute values, without ``__getstate__``."""
    clone = object.__new__(type(obj))
    clone.__dict__.update(obj.__dict__)
    return clone
