"""Low-level vectorised tensor operations used by the convolution layers.

All image tensors use the NCHW layout: ``(batch, channels, height, width)``.
Convolutions are implemented with the classic im2col / col2im lowering so that
the arithmetic of each primitive is one large BLAS GEMM instead of Python
loops.  The three primitives below (forward, input-gradient, weight-gradient)
are shared between :class:`~repro.nn.conv.Conv2D` and
:class:`~repro.nn.conv.Conv2DTranspose`, since a transposed convolution is
exactly the input-gradient of a convolution.

**Small maps** (fewer input pixels than kernel taps, :func:`small_map`) are
not lowered: the forward and input-gradient GEMMs use the weight unrolled
over the map's pixels, the weight gradient one GEMM per kernel tap.

**Memory layout.**  The images the primitives return (forward outputs and
input gradients) are NCHW-shaped views of fresh batch-innermost ``(C, H, W,
N)`` memory — batch stride = itemsize — that callers index as NCHW; inputs
may have any strides.  :func:`im2col` returns, and :func:`col2im` consumes,
columns ``(kh, kw, C, out_h, out_w, N)``.  Flattened to ``(kh*kw*C,
out_h*out_w*N)`` they are the right-hand side of *one* GEMM for the whole
batch, whose result *is* the output's ``(C_out, out_h, out_w, N)`` memory
(no copy into place), and a gradient a convolution produced enters the next
GEMM as a free reshape.  Every gather and per-offset add runs over contiguous
runs of ``N`` (``out_w*N`` at stride 1), not along ``out_w``, which is 2-8
elements on a small discriminator's late layers.  Weights ``(C_out, C_in, kh,
kw)`` are permuted to ``(C_out, kh, kw, C_in)`` (:func:`weight_matrix`), a
copy the size of the weight, per call unless the caller passes it in.  The
layout stays inside :mod:`repro.nn`: a :class:`~repro.nn.model.Sequential`
hands C-contiguous arrays in and out.

**Scratch.**  :func:`im2col` writes the input into the interior of a
zero-bordered ``(C, Hp, Wp, N)`` buffer (the one copy that normalises any
caller layout) and gathers the windows from it with one strided copy.  The
buffer and its window view are a *plan*, cached per
``(input shape, dtype, kh, kw, stride, pad)`` in a bounded, **thread-local**
LRU: a serving dispatcher thread running the generator beside the trainer
never shares one with it, nothing hangs off a layer (so nothing is pickled
or deep-copied with a model), and a plan is only live inside one
:func:`im2col` call.  Everything a primitive *returns* is, or is a view of,
memory allocated by that call and never written again.

Every primitive preserves the dtype of its operands: feed float32 tensors in
(the default precision policy, see :mod:`repro.nn.precision`) and the im2col
buffers and GEMMs stay float32 end-to-end, halving memory traffic relative
to float64.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "conv_output_size",
    "conv_transpose_output_size",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_input_grad",
    "conv2d_weight_grad",
    "weight_matrix",
    "small_map",
]

#: Plans kept per thread.  A trainer thread touches one plan per distinct
#: conv geometry (about a dozen with evaluation batches); beyond the bound
#: the least recently used plan is dropped and rebuilt on demand.
MAX_PLANS = 32

_local = threading.local()


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"Invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, pad={pad} gives non-positive output {out}"
        )
    return out


def conv_transpose_output_size(
    size: int, kernel: int, stride: int, pad: int, output_padding: int = 0
) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    out = (size - 1) * stride - 2 * pad + kernel + output_padding
    if out <= 0:
        raise ValueError(
            f"Invalid transposed-convolution geometry: size={size}, "
            f"kernel={kernel}, stride={stride}, pad={pad}, "
            f"output_padding={output_padding} gives non-positive output {out}"
        )
    return out


def _output_hw(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> Tuple[int, int]:
    return conv_output_size(h, kh, stride, pad), conv_output_size(w, kw, stride, pad)


class _PaddedPlan:
    """Zero-bordered ``(C, Hp, Wp, N)`` staging buffer for one im2col geometry."""

    __slots__ = ("interior", "windows")

    def __init__(self, shape, dtype, kh: int, kw: int, stride: int, pad: int) -> None:
        n, c, h, w = shape
        out_h, out_w = _output_hw(h, w, kh, kw, stride, pad)
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=dtype)
        #: NCHW view of the only part ever written: the border stays zero.
        self.interior = padded[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2)
        #: Read-only ``(kh, kw, C, out_h, out_w, N)`` view of every patch.
        sc, sh, sw, sn = padded.strides
        self.windows = as_strided(
            padded,
            (kh, kw, c, out_h, out_w, n),
            (sh, sw, sc, sh * stride, sw * stride, sn),
            writeable=False,
        )


def _padded_plan(shape, dtype, kh: int, kw: int, stride: int, pad: int) -> _PaddedPlan:
    """This thread's plan for a geometry (built on first use, LRU-bounded)."""
    plans: Optional[OrderedDict] = getattr(_local, "plans", None)
    if plans is None:
        plans = _local.plans = OrderedDict()
    key = (shape, dtype, kh, kw, stride, pad)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _PaddedPlan(shape, dtype, kh, kw, stride, pad)
        if len(plans) > MAX_PLANS:
            plans.popitem(last=False)
    else:
        plans.move_to_end(key)
    return plan


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Lower image patches into a matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``; any strides.
    kh, kw:
        Kernel height and width.
    stride, pad:
        Stride and symmetric zero padding.

    Returns
    -------
    np.ndarray
        Fresh contiguous array of shape ``(kh, kw, C, out_h, out_w, N)``.
    """
    plan = _padded_plan(x.shape, x.dtype, kh, kw, stride, pad)
    np.copyto(plan.interior, x)
    return plan.windows.copy()


def col2im(
    col: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Scatter-add column patches back into an image (adjoint of :func:`im2col`).

    ``col`` has :func:`im2col`'s layout ``(kh, kw, C, out_h, out_w, N)``.  The
    result is ``(N, C, H, W)`` as a view of a fresh ``(C, Hp, Wp, N)``
    accumulator with the padded border cropped off — batch-innermost, so not
    contiguous — and what it looks at is never written again.
    """
    n, c, h, w = input_shape
    out_h, out_w = _output_hw(h, w, kh, kw, stride, pad)
    if col.shape != (kh, kw, c, out_h, out_w, n):
        raise ValueError(
            f"Columns of shape {col.shape} do not lower an input of shape "
            f"{tuple(input_shape)} with kernel=({kh}, {kw}), stride={stride}, pad={pad}"
        )
    img = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=col.dtype)
    for i in range(kh):
        rows = slice(i, i + stride * out_h, stride)
        for j in range(kw):
            img[:, rows, j : j + stride * out_w : stride] += col[i, j]
    return img[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2)


# The GEMMs below are ``np.dot`` on 2-D operands, not ``@``: the same BLAS
# call with less dispatch, and the result carries NumPy's canonical dtype
# object where ``matmul`` hands on an operand's — which, for a model that was
# unpickled into a pool slot, changes how pickle memoizes every reply.


def weight_matrix(weight: np.ndarray) -> np.ndarray:
    """``(C_out, C_in, kh, kw)`` weights as the ``(C_out, kh*kw*C_in)`` GEMM operand."""
    return weight.transpose(0, 2, 3, 1).reshape(weight.shape[0], -1)


#: Per GEMM geometry, whether one GEMM over every segment's columns gives each
#: column the bits of a GEMM over its segment alone (see :func:`dot_segments`).
_FUSED_EXACT: Dict[tuple, bool] = {}


def dot_segments(a: np.ndarray, b: np.ndarray, n: int, segments=None) -> np.ndarray:
    """``np.dot(a, b)`` for ``(P, n)``-ordered columns, bitwise a GEMM per segment of ``n``.

    BLAS may pick its kernel by size (OpenBLAS: a small-matrix kernel), and
    then a column's bits depend on how many columns share the call.  So one
    GEMM serves every segment only where it gave the per-segment GEMMs' bits
    on random operands of this geometry, checked once per process; elsewhere
    each segment's columns, gathered as a separate pass lowers them, get a
    GEMM of their own.
    """
    if not segments or len(segments) == 1:
        return np.dot(a, b)
    sizes = tuple(stop - start for start, stop in segments)
    key = (a.shape, a.strides, b.shape, n, sizes)
    exact = _FUSED_EXACT.get(key)
    if exact is None:
        # Two kernels can round one output alike by chance (a 2-term dot
        # product does about a quarter of the time): small outputs get more draws.
        draws = 2 if a.shape[0] * (b.shape[1] // n) * min(sizes) >= 4096 else 12
        probes = (_fused_is_exact(a, b, n, segments, seed) for seed in range(draws))
        exact = _FUSED_EXACT[key] = all(probes)
    return np.dot(a, b) if exact else _dot_each(a, b, n, segments)


def _fused_is_exact(a: np.ndarray, b: np.ndarray, n: int, segments, seed: int) -> bool:
    """Whether random operands of this geometry and layout give the same bits both ways."""
    rng = np.random.default_rng(seed)
    probe_a = np.empty_like(a)
    probe_a[...] = rng.random(a.shape, dtype=a.dtype)
    probe_b = rng.random(b.shape, dtype=b.dtype)
    return np.dot(probe_a, probe_b).tobytes() == _dot_each(probe_a, probe_b, n, segments).tobytes()


def _dot_each(a: np.ndarray, b: np.ndarray, n: int, segments) -> np.ndarray:
    m, k = a.shape[0], b.shape[0]
    columns = b.reshape(k, -1, n)
    out = np.empty((m, columns.shape[1], n), dtype=np.result_type(a, b))
    for start, stop in segments:
        rows = np.dot(a, np.ascontiguousarray(columns[:, :, start:stop]).reshape(k, -1))
        out[:, :, start:stop] = rows.reshape(m, -1, stop - start)
    return out.reshape(m, -1)


def _channel_major(grad_out: np.ndarray) -> np.ndarray:
    """``(N, C_out, oh, ow)`` as the ``(C_out, oh*ow*N)`` GEMM operand: free if batch-innermost."""
    return grad_out.transpose(1, 2, 3, 0).reshape(grad_out.shape[1], -1)


def small_map(in_hw: Tuple[int, int], kernel_hw: Tuple[int, int]) -> bool:
    """Whether a map has fewer pixels than the kernel window: most of im2col's work is padding."""
    return in_hw[0] * in_hw[1] < kernel_hw[0] * kernel_hw[1]


@functools.lru_cache(maxsize=MAX_PLANS)
def _taps(h: int, w: int, kh: int, kw: int, stride: int, pad: int):
    """Per ``(output pixel, input pixel)``: the flat kernel tap joining them, if one does."""
    out_h, out_w = _output_hw(h, w, kh, kw, stride, pad)
    oy, ox = np.divmod(np.arange(out_h * out_w), out_w)
    iy, ix = np.divmod(np.arange(h * w), w)
    i, j = iy - oy[:, None] * stride + pad, ix - ox[:, None] * stride + pad
    inside = (i >= 0) & (i < kh) & (j >= 0) & (j < kw)
    taps = np.where(inside, i * kw + j, 0)
    taps.flags.writeable = inside.flags.writeable = False  # shared by every caller
    return taps, inside


@functools.lru_cache(maxsize=MAX_PLANS)
def _tap_spans(size: int, out: int, k: int, stride: int, pad: int):
    """Along one axis, per kernel offset ``t`` that meets the input: ``(t, outputs, inputs)``."""
    spans = []
    for t in range(k):
        lo, hi = max(0, -((t - pad) // stride)), min(out, (size - 1 + pad - t) // stride + 1)
        if lo < hi:
            first = lo * stride + t - pad
            last = first + (hi - lo - 1) * stride
            spans.append((t, slice(lo, hi), slice(first, last + 1, stride)))
    return spans


def _dense_weight(matrix: np.ndarray, c_in: int, taps, inside) -> np.ndarray:
    """:func:`weight_matrix` unrolled over a small map: ``(C_out*P_out, P_in*C_in)``."""
    c_out = matrix.shape[0]
    # Gathered whole ``C_in`` rows at a time: C_in stays innermost.
    dense = matrix.reshape(c_out, -1, c_in).take(taps, axis=1)
    if not inside.all():
        dense[:, ~inside] = 0
    return dense.reshape(c_out * taps.shape[0], -1)


def _geometry_error(size, kernel, stride: int, pad: int, expected, got) -> ValueError:
    return ValueError(
        f"Inconsistent convolution geometry: size={tuple(size)}, "
        f"kernel={tuple(kernel)}, stride={stride}, pad={pad} gives output "
        f"{tuple(expected)}, but the output gradient is {tuple(got)}"
    )


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    col: Optional[np.ndarray] = None,
    matrix: Optional[np.ndarray] = None,
    segments=None,
) -> np.ndarray:
    """Cross-correlation of ``x`` with ``weight``.

    ``x`` has shape ``(N, C_in, H, W)``; ``weight`` has shape
    ``(C_out, C_in, kh, kw)``.  Returns ``(N, C_out, out_h, out_w)``, a view of
    the GEMM's batch-innermost result.  ``col`` is ``im2col(x, kh, kw, stride,
    pad)`` and ``matrix`` is ``weight_matrix(weight)`` when the caller already
    holds them; ``segments`` (sample ranges) go to :func:`dot_segments`.
    """
    n = x.shape[0]
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(
            f"Channel mismatch: input has {x.shape[1]} channels, "
            f"weight expects {c_in}"
        )
    if matrix is None:
        matrix = weight_matrix(weight)
    if small_map(x.shape[2:], (kh, kw)):
        out_h, out_w = _output_hw(*x.shape[2:], kh, kw, stride, pad)
        dense = _dense_weight(matrix, c_in, *_taps(*x.shape[2:], kh, kw, stride, pad))
        pixels = np.ascontiguousarray(x.transpose(2, 3, 1, 0)).reshape(-1, n)
        out = dot_segments(dense, pixels, n, segments)
    else:
        if col is None:
            col = im2col(x, kh, kw, stride, pad)
        elif col.shape[:3] + col.shape[5:] != (kh, kw, c_in, n):
            raise ValueError(f"Columns of shape {col.shape} were not lowered from this input")
        out_h, out_w = col.shape[3:5]
        out = dot_segments(matrix, col.reshape(kh * kw * c_in, -1), n, segments)
    return out.reshape(c_out, out_h, out_w, n).transpose(3, 0, 1, 2)


def conv2d_input_grad(
    grad_out: np.ndarray,
    weight: np.ndarray,
    input_hw: Tuple[int, int],
    stride: int = 1,
    pad: int = 0,
    matrix: Optional[np.ndarray] = None,
    segments=None,
) -> np.ndarray:
    """Gradient of a convolution w.r.t. its input (a.k.a. transposed conv).

    ``grad_out`` has shape ``(N, C_out, out_h, out_w)``; the result has shape
    ``(N, C_in, *input_hw)``.  ``input_hw`` must be a size the convolution
    maps to ``grad_out``'s spatial size.  ``matrix`` is
    ``weight_matrix(weight)`` when the caller already holds it; ``segments``
    go to :func:`dot_segments`.
    """
    n, c_out, out_h, out_w = grad_out.shape
    c_out_w, c_in, kh, kw = weight.shape
    if c_out != c_out_w:
        raise ValueError(f"Channel mismatch: grad has {c_out} channels, weight has {c_out_w}")
    h, w = input_hw
    expected = _output_hw(h, w, kh, kw, stride, pad)
    if expected != (out_h, out_w):
        raise _geometry_error((h, w), (kh, kw), stride, pad, expected, (out_h, out_w))
    if matrix is None:
        matrix = weight_matrix(weight)
    if small_map((h, w), (kh, kw)):
        dense = _dense_weight(matrix, c_in, *_taps(h, w, kh, kw, stride, pad))
        pixels = dot_segments(dense.T, _channel_major(grad_out).reshape(-1, n), n, segments)
        image = np.ascontiguousarray(pixels.reshape(h, w, c_in, n).transpose(2, 0, 1, 3))
        return image.transpose(3, 0, 1, 2)
    col = dot_segments(matrix.T, _channel_major(grad_out), n, segments)
    col = col.reshape(kh, kw, c_in, out_h, out_w, n)
    return col2im(col, (n, c_in, h, w), kh, kw, stride, pad)


def conv2d_weight_grad(
    x: np.ndarray,
    grad_out: np.ndarray,
    kernel_hw: Tuple[int, int],
    stride: int = 1,
    pad: int = 0,
    col: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of a convolution w.r.t. its weight.

    Returns an array of shape ``(C_out, C_in, kh, kw)`` (a transposed view of
    a fresh array).  ``col`` is ``im2col(x, kh, kw, stride, pad)`` when the
    caller already holds it.
    """
    n, c_in = x.shape[:2]
    c_out = grad_out.shape[1]
    kh, kw = kernel_hw
    expected = (n,) + _output_hw(*x.shape[2:], kh, kw, stride, pad)
    got = grad_out.shape[:1] + grad_out.shape[2:]
    if expected != got:
        raise _geometry_error((n,) + x.shape[2:], kernel_hw, stride, pad, expected, got)
    if small_map(x.shape[2:], kernel_hw):
        # One GEMM per kernel tap over the pixel pairs it joins, written into
        # place: no multiply-add falls on padding, and nothing is folded.
        grads, inputs = grad_out.transpose(1, 2, 3, 0), x.transpose(1, 2, 3, 0)
        dw = np.zeros((kh, kw, c_out, c_in), dtype=np.result_type(x, grad_out))
        for i, oy, iy in _tap_spans(x.shape[2], expected[1], kh, stride, pad):
            for j, ox, ix in _tap_spans(x.shape[3], expected[2], kw, stride, pad):
                rows = grads[:, oy, ox].reshape(c_out, -1)
                np.dot(rows, inputs[:, iy, ix].reshape(c_in, -1).T, out=dw[i, j])
        return dw.transpose(2, 3, 0, 1)
    if col is None:
        col = im2col(x, kh, kw, stride, pad)
    elif col.shape != (kh, kw, c_in) + expected[1:] + (n,):
        raise ValueError(f"Columns of shape {col.shape} were not lowered from this input")
    # Contiguous as an ``im2col`` of its own: a one-sample slice reshapes to a view.
    col = np.ascontiguousarray(col).reshape(kh * kw * c_in, -1)
    dw = np.dot(_channel_major(grad_out), col.T)
    return dw.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
