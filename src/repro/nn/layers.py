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

Parameters, caches and outputs all live in the layer's ``dtype``, which is
assigned by the owning :class:`~repro.nn.model.Sequential` (or resolved from
the process-wide policy in :mod:`repro.nn.precision` when a layer is built
standalone).  Forward/backward implementations are written to preserve that
dtype — no hidden float64 upcasts on the hot path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from . import initializers as init
from .precision import resolve_dtype

__all__ = [
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
    """Fully connected layer ``y = x @ W + b``."""

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

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._x = x
        out = x @ self.params["W"]
        if self.use_bias:
            out += self.params["b"]
        return out

    def backward(
        self, grad_out: np.ndarray, *, param_grads: bool = True, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        if param_grads:
            self.grads["W"] += self._x.T @ grad_out
            if self.use_bias:
                self.grads["b"] += grad_out.sum(axis=0)
        if not input_grad:
            return None
        return grad_out @ self.params["W"].T


class Flatten(Layer):
    """Flatten every per-sample tensor to a vector."""

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


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
        return grad_out.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, rate: float, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"Dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._mask: Optional[np.ndarray] = None
        self._rng = np.random.default_rng(0)

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

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class LeakyReLU(Layer):
    """Leaky rectified linear unit with negative slope ``alpha``."""

    def __init__(self, alpha: float = 0.2, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._mask = x > 0
        return np.where(self._mask, x, self.alpha * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_out, self.alpha * grad_out)


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

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

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - self._out**2)


class Softmax(Layer):
    """Softmax over the last axis."""

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


class BatchNorm(Layer):
    """Batch normalisation over all axes except the channel axis.

    Works on ``(N, C)`` dense activations and ``(N, C, H, W)`` images.  Uses
    exponential moving averages of mean/variance at evaluation time, as in
    Keras.  Every training forward keeps its batch ``(mean, var)`` in
    ``batch_stats`` and folds it into the averages with :meth:`fold`, so a
    copy that ran the forward elsewhere hands back the statistics to fold.
    """

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
        self.batch_stats: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        channels = int(input_shape[0])
        self.add_param("gamma", (channels,), rng, init.ones)
        self.add_param("beta", (channels,), rng, init.zeros)
        self.running_mean = np.zeros(channels, dtype=self._resolved_dtype())
        self.running_var = np.ones(channels, dtype=self._resolved_dtype())
        super().build(input_shape, rng)

    def _reduce_axes(self, ndim: int) -> Tuple[int, ...]:
        return (0,) + tuple(range(2, ndim))

    def _bshape(self, ndim: int) -> Tuple[int, ...]:
        return (1, -1) + (1,) * (ndim - 2)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        axes = self._reduce_axes(x.ndim)
        bshape = self._bshape(x.ndim)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.batch_stats = (mean, var)
            self.fold(mean, var)
        else:
            mean = self.running_mean
            var = self.running_var
        self._std = np.sqrt(var + self.eps).reshape(bshape)
        self._xhat = (x - mean.reshape(bshape)) / self._std
        self._m = x.size // x.shape[1]
        self._training = training
        return self.params["gamma"].reshape(bshape) * self._xhat + self.params[
            "beta"
        ].reshape(bshape)

    def fold(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Move the running statistics one momentum step toward a batch's ``(mean, var)``."""
        self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var

    def backward(
        self, grad_out: np.ndarray, *, param_grads: bool = True, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        axes = self._reduce_axes(grad_out.ndim)
        bshape = self._bshape(grad_out.ndim)
        if param_grads:
            self.grads["gamma"] += (grad_out * self._xhat).sum(axis=axes)
            self.grads["beta"] += grad_out.sum(axis=axes)
        if not input_grad:
            return None
        gamma = self.params["gamma"].reshape(bshape)
        dxhat = grad_out * gamma
        if not self._training:
            return dxhat / self._std
        m = float(self._m)
        sum_dxhat = dxhat.sum(axis=axes).reshape(bshape)
        sum_dxhat_xhat = (dxhat * self._xhat).sum(axis=axes).reshape(bshape)
        return (dxhat - sum_dxhat / m - self._xhat * sum_dxhat_xhat / m) / self._std


class LayerNorm(Layer):
    """Layer normalisation over all per-sample axes."""

    def __init__(self, eps: float = 1e-5, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.eps = float(eps)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        self.add_param("gamma", tuple(input_shape), rng, init.ones)
        self.add_param("beta", tuple(input_shape), rng, init.zeros)
        super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        axes = tuple(range(1, x.ndim))
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        self._std = np.sqrt(var + self.eps)
        self._xhat = (x - mean) / self._std
        self._m = x[0].size
        return self.params["gamma"] * self._xhat + self.params["beta"]

    def backward(
        self, grad_out: np.ndarray, *, param_grads: bool = True, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        axes = tuple(range(1, grad_out.ndim))
        if param_grads:
            self.grads["gamma"] += (grad_out * self._xhat).sum(axis=0)
            self.grads["beta"] += grad_out.sum(axis=0)
        if not input_grad:
            return None
        dxhat = grad_out * self.params["gamma"]
        m = float(self._m)
        sum_dxhat = dxhat.sum(axis=axes, keepdims=True)
        sum_dxhat_xhat = (dxhat * self._xhat).sum(axis=axes, keepdims=True)
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
        n, c, h, w = grad_out.shape
        f = self.factor
        return grad_out.reshape(n, c, h // f, f, w // f, f).sum(axis=(3, 5))


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
