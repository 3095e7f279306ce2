"""Core layers of the NumPy neural-network substrate.

Every layer implements the interface defined by :class:`Layer`:

* ``build(input_shape, rng)`` lazily creates parameters (shapes exclude the
  batch dimension),
* ``forward(x, training)`` computes the output and caches whatever is needed
  for the backward pass,
* ``backward(grad_out)`` accumulates parameter gradients into ``self.grads``
  and **returns the gradient with respect to the layer input**.  A layer that
  has parameters also accepts the keywords ``param_grads=False`` (leave
  ``self.grads`` alone: the caller only wants the input gradient) and
  ``input_grad=False`` (return ``None``: nobody reads the input gradient);
  parameter-free layers are never passed either.

Returning input gradients is what lets MD-GAN's workers produce the error
feedback :math:`F_n = \\partial \\tilde B / \\partial x` without holding a
generator, and lets the server chain that feedback through the generator.

**Segments.**  One pass may carry several batches of the same model in a row
(``segments``, passed to ``segmented_forward`` layers and to every backward
with parameters): whatever reduces over samples does so per segment, in
segment order, on the layout a separate pass would hold (:func:`segment_rows`).

Parameters, caches and outputs all live in the layer's ``dtype``, which is
assigned by the owning :class:`~repro.nn.model.Sequential` (or resolved from
the process-wide policy in :mod:`repro.nn.precision` when a layer is built
standalone).  Forward/backward implementations are written to preserve that
dtype — no hidden float64 upcasts on the hot path.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import initializers as init
from .precision import resolve_dtype

__all__ = [
    "segment_rows",
    "Layer",
    "Dense",
    "Flatten",
    "Reshape",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "BatchNorm",
    "LayerNorm",
    "UpSampling2D",
    "GaussianNoise",
]


#: ``(start, stop)`` sample ranges of the batches one pass carries; ``None`` is one.
Segments = Optional[Sequence[Tuple[int, int]]]


def segment_rows(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of ``x`` laid out as a pass over those rows alone holds them.

    Reductions sum in memory order, so only that layout gives a separate
    pass's bits.  Sample-outermost rows are a view; batch-innermost ones
    (:mod:`repro.nn.tensor_ops`) are copied with every stride, gaps included,
    rescaled to the segment's sample count.
    """
    n, count, item = len(x), stop - start, x.itemsize
    if count == n:
        return x
    rows = x[start:stop]
    per_sample = [s for s, size in zip(x.strides[1:], x.shape[1:]) if size > 1]
    if x.strides[0] != item or any(s % (n * item) for s in per_sample):
        return rows
    inner = tuple(s // n * count for s in x.strides[1:])
    extent = count + sum((size - 1) * s for size, s in zip(rows.shape[1:], inner)) // item
    # A lone sample gets a C-order sample stride, as NumPy gives it: a GEMM reads it.
    strides = (item if count > 1 else extent * item,) + inner
    out = np.ndarray(rows.shape, x.dtype, np.empty(extent, x.dtype), strides=strides)
    out[...] = rows
    return out


def stack_segments(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Per-segment results, in segment order, as one batch laid out as the longest is."""
    if len(parts) == 1:
        return parts[0]
    like = max(parts, key=len)
    out = np.empty_like(like, shape=(sum(map(len, parts)),) + like.shape[1:])
    start = 0
    for part in parts:
        out[start : start + len(part)] = part
        start += len(part)
    return out


class Layer:
    """Base class for all layers.

    Parameters live in ``self.params`` and their gradients in ``self.grads``;
    both are dictionaries keyed by parameter name with identically shaped
    arrays.  Inside a built :class:`~repro.nn.model.Sequential` they are views
    of the model's flat ``params_flat`` / ``grads_flat`` vectors, so layers
    only ever update them in place, never rebind them.

    Backward caches are only ever *rebound*: ``forward`` assigns fresh arrays
    to its cache attributes and never writes into an array an earlier call
    cached, and ``backward`` never writes into a cache.  So a shallow copy
    taken after ``forward(a)`` (:meth:`~repro.nn.model.Sequential.snapshot`)
    still backpropagates ``a`` bitwise after any later ``forward(b)``.
    """

    #: Whether ``forward`` reduces over samples, and so takes ``segments``.
    segmented_forward = False
    #: Backward caches with one row per sample, cut by :meth:`restrict`.
    _row_caches: Tuple[str, ...] = ()

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or self.__class__.__name__
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        #: Floating dtype of parameters/gradients; assigned by the owning
        #: model before build, else resolved from the default policy.
        self.dtype: Optional[np.dtype] = None

    def _resolved_dtype(self) -> np.dtype:
        if self.dtype is None:
            self.dtype = resolve_dtype(None)
        return self.dtype

    # -- lifecycle ---------------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Create parameters for the given per-sample input shape."""
        del rng
        self._resolved_dtype()
        self.input_shape = tuple(input_shape)
        self.output_shape = self.compute_output_shape(self.input_shape)
        self.built = True

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape for the given per-sample input shape."""
        return tuple(input_shape)

    # -- computation -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def restrict(self, segment: int, start: int, stop: int) -> None:
        """Keep only segment ``segment`` (samples ``start:stop``) of the last forward's caches.

        Called on a :meth:`~repro.nn.model.Sequential.snapshot` copy, which then
        backpropagates that segment alone, bitwise as a forward over it would.
        """
        for name in self._row_caches:
            value = getattr(self, name, None)
            if value is not None:
                setattr(self, name, segment_rows(value, start, stop))

    # -- utilities ---------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset all parameter gradients to zero."""
        for grad in self.grads.values():
            grad.fill(0.0)

    def add_param(
        self,
        name: str,
        shape: Tuple[int, ...],
        rng: np.random.Generator,
        initializer=init.glorot_uniform,
    ) -> np.ndarray:
        """Create and register a parameter plus its gradient buffer."""
        initializer = init.get_initializer(initializer)
        value = np.asarray(initializer(shape, rng), dtype=self._resolved_dtype())
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    @property
    def num_params(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r}, params={self.num_params})"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``, one GEMM per segment."""

    segmented_forward = True
    _row_caches = ("_x",)

    def __init__(
        self,
        units: int,
        use_bias: bool = True,
        kernel_initializer=init.glorot_uniform,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = int(units)
        self.use_bias = bool(use_bias)
        self.kernel_initializer = kernel_initializer
        self._x: Optional[np.ndarray] = None

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat inputs, got per-sample shape {input_shape}")
        return (self.units,)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        fan_in = int(input_shape[0])
        self.add_param("W", (fan_in, self.units), rng, self.kernel_initializer)
        if self.use_bias:
            self.add_param("b", (self.units,), rng, init.zeros)
        super().build(input_shape, rng)

    def forward(
        self, x: np.ndarray, training: bool = True, segments: Segments = None
    ) -> np.ndarray:
        del training
        self._x = x
        # A GEMM per segment: a row's bits can depend on how many rows share the
        # call (OpenBLAS picks its small-matrix kernel by size).
        weight = self.params["W"]
        out = stack_segments(
            [segment_rows(x, a, b) @ weight for a, b in segments or ((0, len(x)),)]
        )
        if self.use_bias:
            out += self.params["b"]
        return out

    def backward(
        self,
        grad_out: np.ndarray,
        *,
        param_grads: bool = True,
        input_grad: bool = True,
        segments: Segments = None,
    ) -> Optional[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        if param_grads:
            for start, stop in segments or ((0, len(grad_out)),):
                grad = segment_rows(grad_out, start, stop)
                self.grads["W"] += segment_rows(self._x, start, stop).T @ grad
                if self.use_bias:
                    self.grads["b"] += grad.sum(axis=0)
        if not input_grad:
            return None
        weight = self.params["W"]
        return stack_segments(
            [segment_rows(grad_out, a, b) @ weight.T for a, b in segments or ((0, len(grad_out)),)]
        )


class Flatten(Layer):
    """Flatten every per-sample tensor to a vector."""

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(grad_out.shape[:1] + self._shape[1:])


class Reshape(Layer):
    """Reshape per-sample tensors to ``target_shape`` (batch axis preserved)."""

    def __init__(self, target_shape: Tuple[int, ...], name: Optional[str] = None) -> None:
        super().__init__(name)
        self.target_shape = tuple(int(s) for s in target_shape)

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if int(np.prod(input_shape)) != int(np.prod(self.target_shape)):
            raise ValueError(
                f"Cannot reshape per-sample shape {input_shape} "
                f"({int(np.prod(input_shape))} values) to {self.target_shape}"
            )
        return self.target_shape

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._shape = x.shape
        return x.reshape((x.shape[0],) + self.target_shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(grad_out.shape[:1] + self._shape[1:])


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, rate: float, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"Dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._mask: Optional[np.ndarray] = None
        self._rng = np.random.default_rng(0)

    #: One draw per element, in C order: a segmented pass draws the separate passes' stream.
    _row_caches = ("_mask",)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        # Keep a dedicated stream so dropout masks do not perturb the
        # initialisation stream shared with other layers.
        self._rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype)
        mask /= np.asarray(keep, dtype=x.dtype)
        self._mask = mask
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class ReLU(Layer):
    """Rectified linear unit."""

    _row_caches = ("_mask",)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class LeakyReLU(Layer):
    """Leaky rectified linear unit with negative slope ``alpha`` in ``[0, 1]``.

    The forward is ``max(alpha * x, x)`` for ``alpha > 0``; the backward (and
    the forward at ``alpha = 0``) multiplies by a ufunc-built slope of 1 or
    ``alpha``, as ``(1 - alpha) + alpha`` rounds to 1: both bitwise ``np.where``'s.
    """

    _row_caches = ("_mask",)

    def __init__(self, alpha: float = 0.2, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"LeakyReLU alpha must be in [0, 1], got {alpha}")
        self.alpha = float(alpha)

    def _leak(self, dtype: np.dtype) -> np.ndarray:
        # On the scalar type, and first in each product: the output carries
        # NumPy's canonical dtype object, as ``np.where``'s did (pickle memoizes it).
        slope = self._mask.astype(dtype.type)
        slope *= 1.0 - self.alpha
        slope += self.alpha
        return slope

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._mask = x > 0
        if self.alpha == 0.0:
            return self._leak(x.dtype) * x
        # The scalar product first, for the canonical dtype object (see ``_leak``).
        return np.maximum(self.alpha * x, x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self._leak(grad_out.dtype) * grad_out


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    _row_caches = ("_out",)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._out * (1.0 - self._out)


class Tanh(Layer):
    """Hyperbolic tangent activation (generator output nonlinearity)."""

    _row_caches = ("_out",)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - self._out**2)


class Softmax(Layer):
    """Softmax over the last axis."""

    _row_caches = ("_out",)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        shifted = x - x.max(axis=-1, keepdims=True)
        ex = np.exp(shifted)
        self._out = ex / ex.sum(axis=-1, keepdims=True)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        s = self._out
        dot = (grad_out * s).sum(axis=-1, keepdims=True)
        return s * (grad_out - dot)


def _channel_rows(x: np.ndarray) -> np.ndarray:
    """``(N, C, ...)`` as contiguous ``(C, ...*N)`` rows: free if batch-innermost."""
    order = (1,) + tuple(range(2, x.ndim)) + (0,)
    return np.ascontiguousarray(x.transpose(order)).reshape(x.shape[1], -1)


def _from_channel_rows(parts, segments, shape) -> np.ndarray:
    """Per-segment :func:`_channel_rows` results as one batch-innermost ``(N, C, ...)`` view."""
    inner = tuple(shape[1:])
    if len(parts) == 1:
        whole = parts[0].reshape(inner + (shape[0],))
    else:
        whole = np.empty(inner + (shape[0],), dtype=parts[0].dtype)
        for (start, stop), part in zip(segments, parts):
            whole[..., start:stop] = part.reshape(inner + (stop - start,))
    return whole.transpose(whole.ndim - 1, *range(whole.ndim - 1))


class BatchNorm(Layer):
    """Batch normalisation over all axes except the channel axis.

    Works on ``(N, C)`` dense activations and ``(N, C, H, W)`` images.  Uses
    exponential moving averages of mean/variance at evaluation time, as in
    Keras.  Every training forward normalises each segment by its own
    ``(mean, var)``, keeps them in ``segment_stats`` and folds them into the
    averages in segment order with :meth:`fold`, so a copy that ran the
    forward elsewhere hands back the statistics to fold.
    Each segment runs on contiguous ``(C, H*W*n)`` rows (:func:`_channel_rows`):
    statistics are row reductions, and the backward's two, ``sum(g)`` and
    ``sum(g * xhat)``, are also the ``beta`` and ``gamma`` gradients.
    """

    segmented_forward = True
    #: Per segment, its normalised ``(C, H*W*n)`` rows.
    _row_caches = ("_xhat",)

    def __init__(
        self,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.running_mean: Optional[np.ndarray] = None
        self.running_var: Optional[np.ndarray] = None
        #: Per segment of the last training forward, its ``(mean, var)``.
        self.segment_stats: list = []

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        channels = int(input_shape[0])
        self.add_param("gamma", (channels,), rng, init.ones)
        self.add_param("beta", (channels,), rng, init.zeros)
        self.running_mean = np.zeros(channels, dtype=self._resolved_dtype())
        self.running_var = np.ones(channels, dtype=self._resolved_dtype())
        super().build(input_shape, rng)

    def forward(
        self, x: np.ndarray, training: bool = True, segments: Segments = None
    ) -> np.ndarray:
        segments = segments or ((0, len(x)),)
        gamma, beta = self.params["gamma"][:, None], self.params["beta"][:, None]
        self._xhat, self._stds, stats, outs = [], [], [], []
        for start, stop in segments:
            rows = _channel_rows(x[start:stop])
            if training:
                mean = rows.sum(axis=1) / rows.shape[1]
                xhat = rows - mean[:, None]
                out = np.square(xhat)  # then the output's buffer
                var = out.sum(axis=1) / rows.shape[1]
                stats.append((mean, var))
                self.fold(mean, var)
            else:
                xhat, var, out = rows - self.running_mean[:, None], self.running_var, None
            std = np.sqrt(var + self.eps)
            xhat /= std[:, None]
            self._xhat.append(xhat)
            self._stds.append(std)
            out = np.multiply(gamma, xhat, out=out)
            out += beta
            outs.append(out)
        if training:
            self.segment_stats = stats
        self._training = training
        return _from_channel_rows(outs, segments, x.shape)

    def restrict(self, segment: int, start: int, stop: int) -> None:
        self._xhat = self._xhat[segment : segment + 1]
        self._stds = self._stds[segment : segment + 1]
        self.segment_stats = self.segment_stats[segment : segment + 1]

    def fold(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Move the running statistics one momentum step toward a batch's ``(mean, var)``."""
        self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var

    def backward(
        self,
        grad_out: np.ndarray,
        *,
        param_grads: bool = True,
        input_grad: bool = True,
        segments: Segments = None,
    ) -> Optional[np.ndarray]:
        segments = segments or ((0, len(grad_out)),)
        grads_in = []
        for (start, stop), xhat, std in zip(segments, self._xhat, self._stds, strict=True):
            grad = _channel_rows(grad_out[start:stop])
            if param_grads or self._training:
                work = grad * xhat
                sum_grad, sum_grad_xhat = grad.sum(axis=1), work.sum(axis=1)
            if param_grads:
                self.grads["gamma"] += sum_grad_xhat
                self.grads["beta"] += sum_grad
            if not input_grad:
                continue
            scale = (self.params["gamma"] / std)[:, None]
            if self._training:
                # dx = gamma / std * (g - mean(g) - xhat * mean(g * xhat)), in ``work``.
                np.multiply(xhat, (sum_grad_xhat / grad.shape[1])[:, None], out=work)
                work += (sum_grad / grad.shape[1])[:, None]
                np.subtract(grad, work, out=work)
                work *= scale
            else:
                work = grad * scale
            grads_in.append(work)
        return _from_channel_rows(grads_in, segments, grad_out.shape) if input_grad else None


def _per_sample_sum(x: np.ndarray) -> np.ndarray:
    """Each sample's sum, shaped to broadcast: in C order, whatever the layout or batch size."""
    sums = np.ascontiguousarray(x).reshape(len(x), -1).sum(axis=1)
    return sums.reshape((-1,) + (1,) * (x.ndim - 1))


def _window_sum(x: np.ndarray, f: int) -> np.ndarray:
    """Sum of every ``f x f`` spatial window, row by row: bits independent of layout.

    On C-contiguous input more than one window wide, the order of NumPy's axis sum.
    """
    rows = (functools.reduce(np.add, (x[:, :, i::f, j::f] for j in range(f))) for i in range(f))
    return functools.reduce(np.add, rows)


class LayerNorm(Layer):
    """Layer normalisation over all per-sample axes."""

    _row_caches = ("_xhat", "_std")

    def __init__(self, eps: float = 1e-5, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.eps = float(eps)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        self.add_param("gamma", tuple(input_shape), rng, init.ones)
        self.add_param("beta", tuple(input_shape), rng, init.zeros)
        super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._m = x[0].size
        mean = _per_sample_sum(x) / self._m
        var = _per_sample_sum(np.square(x - mean)) / self._m
        self._std = np.sqrt(var + self.eps)
        self._xhat = (x - mean) / self._std
        return self.params["gamma"] * self._xhat + self.params["beta"]

    def backward(
        self,
        grad_out: np.ndarray,
        *,
        param_grads: bool = True,
        input_grad: bool = True,
        segments: Segments = None,
    ) -> Optional[np.ndarray]:
        if param_grads:
            for start, stop in segments or ((0, len(grad_out)),):
                xhat = self._xhat[start:stop]
                self.grads["gamma"] += (grad_out[start:stop] * xhat).sum(axis=0)
                self.grads["beta"] += segment_rows(grad_out, start, stop).sum(axis=0)
        if not input_grad:
            return None
        dxhat = grad_out * self.params["gamma"]
        m = float(self._m)
        sum_dxhat = _per_sample_sum(dxhat)
        sum_dxhat_xhat = _per_sample_sum(dxhat * self._xhat)
        return (dxhat - sum_dxhat / m - self._xhat * sum_dxhat_xhat / m) / self._std


class UpSampling2D(Layer):
    """Nearest-neighbour spatial upsampling by an integer factor."""

    def __init__(self, factor: int = 2, name: Optional[str] = None) -> None:
        super().__init__(name)
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.factor = int(factor)

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        return (c, h * self.factor, w * self.factor)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        return x.repeat(self.factor, axis=2).repeat(self.factor, axis=3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return _window_sum(grad_out, self.factor)


class GaussianNoise(Layer):
    """Additive Gaussian noise, applied only at training time."""

    def __init__(self, stddev: float = 0.1, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.stddev = float(stddev)
        self._rng = np.random.default_rng(0)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        self._rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.stddev == 0.0:
            return x
        noise = self._rng.normal(0.0, self.stddev, size=x.shape)
        return x + noise.astype(x.dtype, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
