"""Convolutional layers built on the im2col primitives in ``tensor_ops``.

All layers use the NCHW layout.  ``Conv2DTranspose`` is implemented through
the convolution/transposed-convolution duality: its forward pass is the
input-gradient of a convolution and vice versa, so both layers share the same
three vectorised primitives.

Weights are created in the layer's policy dtype (float32 by default) and the
shared primitives are dtype-preserving, so the convolution hot path performs
no per-step casts.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from . import initializers as init
from . import tensor_ops
from .layers import Layer, Segments, _window_sum, segment_rows
from .tensor_ops import (
    conv2d_forward,
    conv2d_input_grad,
    conv2d_weight_grad,
    conv_output_size,
    conv_transpose_output_size,
    weight_matrix,
)

__all__ = ["Conv2D", "Conv2DTranspose", "MaxPool2D", "AvgPool2D", "same_padding"]


def same_padding(kernel_size: int) -> int:
    """Symmetric padding that preserves spatial size for stride-1, odd kernels."""
    if kernel_size % 2 == 0:
        raise ValueError(f"'same' padding requires an odd kernel size, got {kernel_size}")
    return kernel_size // 2


def _lower(x: np.ndarray, k: int, stride: int, pad: int) -> Optional[np.ndarray]:
    """``im2col(x)`` for the primitives to share; ``None`` on a small map, which needs none."""
    small = tensor_ops.small_map(x.shape[2:], (k, k))
    # Through the module, like the primitives do: the name the perf harness rebinds.
    return None if small else tensor_ops.im2col(x, k, k, stride, pad)


class Conv2D(Layer):
    """2-D convolution (cross-correlation) layer.

    Weight shape is ``(filters, in_channels, kh, kw)``.
    """

    #: ``im2col`` of ``_x``, kept from forward so that the weight gradient
    #: does not lower the same input a second time.  Several times the size
    #: of ``_x`` and rebuilt by every forward, so it never travels: pickles
    #: and copies leave it out and fall back to this default.
    _col: Optional[np.ndarray] = None
    #: ``weight_matrix(W)``, kept from forward for the input-gradient GEMM
    #: (the parameters do not change in between); travels like ``_col``.
    _w: Optional[np.ndarray] = None
    segmented_forward = True
    _row_caches = ("_x",)

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | str = 0,
        use_bias: bool = True,
        kernel_initializer=init.glorot_uniform,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0 or kernel_size <= 0 or stride <= 0:
            raise ValueError("filters, kernel_size and stride must be positive")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        if padding == "same":
            padding = same_padding(self.kernel_size)
        self.padding = int(padding)
        self.use_bias = bool(use_bias)
        self.kernel_initializer = kernel_initializer
        self._x: Optional[np.ndarray] = None

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_col", None)
        state.pop("_w", None)
        return state

    def restrict(self, segment: int, start: int, stop: int) -> None:
        super().restrict(segment, start, stop)
        if self._col is not None:
            self._col = self._col[..., start:stop]

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, h, w = input_shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.filters, out_h, out_w)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        c_in = int(input_shape[0])
        self.add_param(
            "W",
            (self.filters, c_in, self.kernel_size, self.kernel_size),
            rng,
            self.kernel_initializer,
        )
        if self.use_bias:
            self.add_param("b", (self.filters,), rng, init.zeros)
        super().build(input_shape, rng)

    def forward(
        self, x: np.ndarray, training: bool = True, segments: Segments = None
    ) -> np.ndarray:
        del training
        self._x = x
        k = self.kernel_size
        self._col = _lower(x, k, self.stride, self.padding)
        self._w = weight_matrix(self.params["W"])
        out = conv2d_forward(
            x, self.params["W"], self.stride, self.padding, self._col, self._w, segments
        )
        if self.use_bias:
            out += self.params["b"].reshape(1, -1, 1, 1)
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
                # ``_col`` is None on a copy of a layer that has run forward;
                # the primitive then lowers ``_x`` itself.
                self.grads["W"] += conv2d_weight_grad(
                    self._x[start:stop],
                    grad,
                    (self.kernel_size, self.kernel_size),
                    self.stride,
                    self.padding,
                    col=None if self._col is None else self._col[..., start:stop],
                )
                if self.use_bias:
                    self.grads["b"] += grad.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        return conv2d_input_grad(
            grad_out,
            self.params["W"],
            self._x.shape[2:],
            self.stride,
            self.padding,
            matrix=self._w,
            segments=segments,
        )


class Conv2DTranspose(Layer):
    """2-D transposed convolution (fractionally strided convolution).

    Weight shape is ``(in_channels, filters, kh, kw)`` — the layout of the
    *virtual* convolution whose input-gradient this layer computes.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | str = 0,
        output_padding: int = 0,
        use_bias: bool = True,
        kernel_initializer=init.glorot_uniform,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0 or kernel_size <= 0 or stride <= 0:
            raise ValueError("filters, kernel_size and stride must be positive")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        if padding == "same":
            padding = same_padding(self.kernel_size)
        self.padding = int(padding)
        self.output_padding = int(output_padding)
        if self.output_padding >= self.stride:
            raise ValueError("output_padding must be smaller than stride")
        self.use_bias = bool(use_bias)
        self.kernel_initializer = kernel_initializer
        self._x: Optional[np.ndarray] = None

    segmented_forward = True
    _row_caches = ("_x",)

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, h, w = input_shape
        out_h = conv_transpose_output_size(
            h, self.kernel_size, self.stride, self.padding, self.output_padding
        )
        out_w = conv_transpose_output_size(
            w, self.kernel_size, self.stride, self.padding, self.output_padding
        )
        return (self.filters, out_h, out_w)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        c_in = int(input_shape[0])
        # Virtual convolution maps (filters -> c_in); its weight layout is
        # (c_out=c_in, c_in=filters, kh, kw).
        self.add_param(
            "W",
            (c_in, self.filters, self.kernel_size, self.kernel_size),
            rng,
            self.kernel_initializer,
        )
        if self.use_bias:
            self.add_param("b", (self.filters,), rng, init.zeros)
        super().build(input_shape, rng)

    def forward(
        self, x: np.ndarray, training: bool = True, segments: Segments = None
    ) -> np.ndarray:
        del training
        self._x = x
        out_shape = self.compute_output_shape(x.shape[1:])
        out = conv2d_input_grad(
            x, self.params["W"], out_shape[1:], self.stride, self.padding, segments=segments
        )
        if self.use_bias:
            out += self.params["b"].reshape(1, -1, 1, 1)
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
        k = self.kernel_size
        # Both halves lower the same tensor: the virtual convolution's input.
        col = _lower(grad_out, k, self.stride, self.padding)
        if param_grads:
            for start, stop in segments or ((0, len(grad_out)),):
                grad = segment_rows(grad_out, start, stop)
                # Duality: weight gradient of the transpose is the weight gradient
                # of the virtual convolution with (input=grad_out, output-grad=x).
                self.grads["W"] += conv2d_weight_grad(
                    grad,
                    segment_rows(self._x, start, stop),
                    (k, k),
                    self.stride,
                    self.padding,
                    col=None if col is None else col[..., start:stop],
                )
                if self.use_bias:
                    self.grads["b"] += grad.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        weight = self.params["W"]
        return conv2d_forward(grad_out, weight, self.stride, self.padding, col, segments=segments)


class MaxPool2D(Layer):
    """Max pooling with a square window and matching stride."""

    _row_caches = ("_mask",)

    def __init__(self, pool_size: int = 2, name: Optional[str] = None) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        if h % self.pool_size or w % self.pool_size:
            raise ValueError(
                f"Spatial dims {(h, w)} must be divisible by pool size "
                f"{self.pool_size}"
            )
        return (c, h // self.pool_size, w // self.pool_size)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        n, c, h, w = x.shape
        p = self.pool_size
        windows = x.reshape(n, c, h // p, p, w // p, p)
        out = windows.max(axis=(3, 5))
        self._mask = windows == out[:, :, :, None, :, None]
        self._in_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self._mask * grad_out[:, :, :, None, :, None]
        # If several entries tie for the max, split the gradient evenly.
        counts = self._mask.sum(axis=(3, 5), keepdims=True)
        grad = grad / counts
        return grad.reshape(grad_out.shape[:1] + self._in_shape[1:])


class AvgPool2D(Layer):
    """Average pooling with a square window and matching stride."""

    def __init__(self, pool_size: int = 2, name: Optional[str] = None) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        if h % self.pool_size or w % self.pool_size:
            raise ValueError(
                f"Spatial dims {(h, w)} must be divisible by pool size "
                f"{self.pool_size}"
            )
        return (c, h // self.pool_size, w // self.pool_size)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        del training
        p = self.pool_size
        self._in_shape = x.shape
        return _window_sum(x, p) / (p * p)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        p = self.pool_size
        grad = grad_out[:, :, :, None, :, None] / (p * p)
        grad = np.broadcast_to(
            grad,
            (
                grad_out.shape[0],
                grad_out.shape[1],
                grad_out.shape[2],
                p,
                grad_out.shape[3],
                p,
            ),
        )
        return grad.reshape(grad_out.shape[:1] + self._in_shape[1:])
