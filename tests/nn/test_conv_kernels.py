"""The convolution kernels against a loop reference, and their buffer rules.

The reference below is the definition of a cross-correlation written as
Python loops — slow, obviously right, and independent of im2col, strides and
BLAS.  The primitives in ``repro.nn.tensor_ops`` are compared against it over
a grid of geometries; the arithmetic order differs (one GEMM against an
explicit sum), so equality is to a tolerance fixed per dtype beforehand.

Every comparison runs with the image operands both NCHW-contiguous and
batch-innermost (the ``(C, H, W, N)`` memory the primitives themselves
return), so neither layout can hide behind the other.

The second half pins what the kernels promise about memory: images come back
as batch-innermost views of fresh memory, the plan cache is bounded and per
thread, nothing handed to a caller is written again, the columns a layer
keeps are its own, and none of it travels with a pickle.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Adam, Conv2D, Conv2DTranspose, Dense, Flatten, LeakyReLU, Sequential
from repro.nn import tensor_ops
from repro.nn.tensor_ops import (
    col2im,
    conv2d_forward,
    conv2d_input_grad,
    conv2d_weight_grad,
    conv_output_size,
    im2col,
)

#: Fixed before looking at any result: ~100 ulp of the dtype on O(1..10) sums.
TOLERANCE = {np.float32: dict(rtol=2e-5, atol=2e-5), np.float64: dict(rtol=1e-12, atol=1e-12)}


# -- the loop reference --------------------------------------------------------
def _taps(n, c_in, c_out, h, w, kh, kw, stride, pad):
    """Every (output position, input position, kernel offset) the convolution touches."""
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    for b in range(n):
        for f in range(c_out):
            for oy in range(out_h):
                for ox in range(out_w):
                    for c in range(c_in):
                        for i in range(kh):
                            for j in range(kw):
                                y = oy * stride + i - pad
                                z = ox * stride + j - pad
                                if 0 <= y < h and 0 <= z < w:
                                    yield (b, f, oy, ox), (b, c, y, z), (f, c, i, j)


def reference_forward(x, weight, stride, pad):
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_hw = ((h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1)
    out = np.zeros((n, c_out) + out_hw, dtype=np.float64)
    for o, i, k in _taps(n, c_in, c_out, h, w, kh, kw, stride, pad):
        out[o] += x[i] * weight[k]
    return out


def reference_input_grad(grad_out, weight, input_hw, stride, pad):
    n, c_out = grad_out.shape[:2]
    _, c_in, kh, kw = weight.shape
    dx = np.zeros((n, c_in) + tuple(input_hw), dtype=np.float64)
    for o, i, k in _taps(n, c_in, c_out, *input_hw, kh, kw, stride, pad):
        dx[i] += grad_out[o] * weight[k]
    return dx


def reference_weight_grad(x, grad_out, kernel_hw, stride, pad):
    n, c_in, h, w = x.shape
    c_out = grad_out.shape[1]
    dw = np.zeros((c_out, c_in) + tuple(kernel_hw), dtype=np.float64)
    for o, i, k in _taps(n, c_in, c_out, h, w, *kernel_hw, stride, pad):
        dw[k] += grad_out[o] * x[i]
    return dw


#: (kernel, stride, pad, height, width): every kernel with every stride, sizes
#: the stride does not tile (rows/columns at the far edge that no window
#: reaches), every pad, rectangular inputs.
GEOMETRIES = [
    (1, 1, 0, 4, 5),
    (1, 2, 0, 5, 4),
    (1, 3, 1, 5, 7),
    (3, 1, 0, 5, 6),
    (3, 1, 1, 4, 4),
    (3, 2, 1, 6, 7),
    (3, 2, 2, 5, 5),
    (3, 3, 0, 8, 7),
    (3, 3, 1, 7, 8),
    (5, 1, 2, 5, 6),
    (5, 2, 2, 8, 8),
    (5, 2, 0, 8, 9),
    (5, 3, 1, 9, 10),
]
#: (batch, c_in, c_out): the degenerate axes the kernels special-case nothing for.
CHANNELS = [(2, 3, 4), (1, 1, 2), (3, 1, 1), (1, 2, 1)]


def batch_innermost(image):
    """The same NCHW values backed by ``(C, H, W, N)`` memory."""
    return np.ascontiguousarray(image.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


#: How image operands are handed to the primitives.
LAYOUTS = {"nchw": np.ascontiguousarray, "chwn": batch_innermost}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,pad,height,width", GEOMETRIES)
def test_primitives_match_the_loop_reference(layout, dtype, kernel, stride, pad, height, width):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + pad)
    tol = TOLERANCE[dtype]
    arrange = LAYOUTS[layout]
    for n, c_in, c_out in CHANNELS:
        x = arrange(rng.normal(size=(n, c_in, height, width)).astype(dtype))
        weight = rng.normal(size=(c_out, c_in, kernel, kernel)).astype(dtype)
        out_h = conv_output_size(height, kernel, stride, pad)
        out_w = conv_output_size(width, kernel, stride, pad)
        grad_out = arrange(rng.normal(size=(n, c_out, out_h, out_w)).astype(dtype))

        out = conv2d_forward(x, weight, stride, pad)
        dx = conv2d_input_grad(grad_out, weight, (height, width), stride, pad)
        dw = conv2d_weight_grad(x, grad_out, (kernel, kernel), stride, pad)

        assert out.dtype == dx.dtype == dw.dtype == dtype
        np.testing.assert_allclose(out, reference_forward(x, weight, stride, pad), **tol)
        np.testing.assert_allclose(
            dx, reference_input_grad(grad_out, weight, (height, width), stride, pad), **tol
        )
        np.testing.assert_allclose(
            dw, reference_weight_grad(x, grad_out, (kernel, kernel), stride, pad), **tol
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [0, 1])
def test_non_contiguous_operands_give_the_same_values(dtype, pad):
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 7, 4, 3)).astype(dtype)
    x = base.transpose(3, 2, 0, 1)[:, ::2]  # (3, 2, 6, 7), no axis contiguous
    assert not x.flags.c_contiguous
    weight = rng.normal(size=(4, 5, 3, 3)).astype(dtype)[:, ::2][:, :2]
    out_hw = (conv_output_size(6, 3, 2, pad), conv_output_size(7, 3, 2, pad))
    grad_out = rng.normal(size=(4,) + out_hw + (3,)).astype(dtype).transpose(3, 0, 1, 2)
    dense = [np.ascontiguousarray(a) for a in (x, weight, grad_out)]

    np.testing.assert_array_equal(
        conv2d_forward(x, weight, 2, pad), conv2d_forward(dense[0], dense[1], 2, pad)
    )
    np.testing.assert_array_equal(
        conv2d_input_grad(grad_out, weight, (6, 7), 2, pad),
        conv2d_input_grad(dense[2], dense[1], (6, 7), 2, pad),
    )
    np.testing.assert_array_equal(
        conv2d_weight_grad(x, grad_out, (3, 3), 2, pad),
        conv2d_weight_grad(dense[0], dense[2], (3, 3), 2, pad),
    )


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    kernel=st.integers(1, 5),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    extra_h=st.integers(0, 5),
    extra_w=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_col2im_is_the_adjoint_of_im2col(
    layout, n, c, kernel, stride, pad, extra_h, extra_w, seed
):
    # <im2col(x), c> == <x, col2im(c)> for every x and c.
    h = max(kernel - 2 * pad, 1) + extra_h
    w = max(kernel - 2 * pad, 1) + extra_w
    rng = np.random.default_rng(seed)
    x = LAYOUTS[layout](rng.normal(size=(n, c, h, w)))
    cols = im2col(x, kernel, kernel, stride, pad)
    c_vec = rng.normal(size=cols.shape)
    lhs = float((cols * c_vec).sum())
    rhs = float((x * col2im(c_vec, x.shape, kernel, kernel, stride, pad)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# -- small maps: one dense GEMM ----------------------------------------------------

#: (kernel, stride, pad, height, width) with fewer input pixels than kernel
#: taps: 1x1 and 2x2 maps, both strides, kernels 3 and 5, taps the map never
#: meets, and the rule's boundary from below (2x4 < 3x3, 4x6 < 5x5).
SMALL_MAPS = [
    (3, 1, 1, 1, 1),
    (3, 2, 1, 1, 1),
    (3, 1, 1, 2, 2),
    (3, 2, 1, 2, 2),
    (3, 1, 1, 2, 4),
    (5, 1, 2, 1, 1),
    (5, 1, 2, 2, 2),
    (5, 2, 2, 2, 2),
    (5, 2, 1, 3, 3),
    (5, 1, 2, 4, 6),
]
#: The boundary from above (as many pixels as taps) and pad 0: im2col's side.
IM2COL_MAPS = [(3, 1, 1, 3, 3), (3, 1, 0, 3, 3), (5, 1, 2, 5, 5), (5, 2, 0, 5, 5), (3, 2, 0, 4, 4)]


@pytest.mark.parametrize("kernel,stride,pad,height,width", SMALL_MAPS + IM2COL_MAPS)
def test_the_dense_gemm_rule_is_fewer_pixels_than_kernel_taps(
    kernel, stride, pad, height, width
):
    fires = (kernel, stride, pad, height, width) in SMALL_MAPS
    assert tensor_ops.small_map((height, width), (kernel, kernel)) is fires


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,pad,height,width", SMALL_MAPS)
def test_small_maps_match_the_float64_reference(
    layout, dtype, kernel, stride, pad, height, width
):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + height)
    tol = TOLERANCE[dtype]
    arrange = LAYOUTS[layout]
    for n, c_in, c_out in CHANNELS + [(16, 8, 6)]:
        x = arrange(rng.normal(size=(n, c_in, height, width)).astype(dtype))
        weight = rng.normal(size=(c_out, c_in, kernel, kernel)).astype(dtype)
        out_hw = tuple(conv_output_size(size, kernel, stride, pad) for size in (height, width))
        grad_out = arrange(rng.normal(size=(n, c_out) + out_hw).astype(dtype))
        reference = [
            reference_forward(x, weight, stride, pad),
            reference_input_grad(grad_out, weight, (height, width), stride, pad),
            reference_weight_grad(x, grad_out, (kernel, kernel), stride, pad),
        ]
        got = [
            conv2d_forward(x, weight, stride, pad),
            conv2d_input_grad(grad_out, weight, (height, width), stride, pad),
            conv2d_weight_grad(x, grad_out, (kernel, kernel), stride, pad),
        ]
        for value, want in zip(got, reference, strict=True):
            assert value.dtype == dtype
            np.testing.assert_allclose(value, want, **tol)
        # Images still come back as batch-innermost views of fresh memory.
        for image in got[:2]:
            assert image.strides[0] == image.itemsize and image.base is not None


def test_small_map_layer_runs_no_im2col_or_col2im(rng, monkeypatch):
    calls = []
    for name in ("im2col", "col2im"):
        monkeypatch.setattr(tensor_ops, name, lambda *args, _name=name: calls.append(_name))
    model = Sequential(
        [Conv2D(6, 3, padding=1), Conv2DTranspose(4, 3, padding=1), Flatten(), Dense(1)],
        input_shape=(5, 2, 2),
        rng=rng,
    )
    x = rng.normal(size=(8, 5, 2, 2)).astype(model.dtype)
    out = model.forward(x, segments=[3, 5])
    model.backward(np.ones_like(out), segments=[3, 5])
    assert calls == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,pad,height,width", GEOMETRIES + IM2COL_MAPS)
def test_im2col_geometries_are_bitwise_the_explicit_lowering(
    dtype, kernel, stride, pad, height, width
):
    rng = np.random.default_rng(kernel + 7 * height)
    n, c_in, c_out = 3, 2, 4
    x = batch_innermost(rng.normal(size=(n, c_in, height, width)).astype(dtype))
    weight = rng.normal(size=(c_out, c_in, kernel, kernel)).astype(dtype)
    out_h, out_w = (conv_output_size(size, kernel, stride, pad) for size in (height, width))
    grad_out = batch_innermost(rng.normal(size=(n, c_out, out_h, out_w)).astype(dtype))
    assert not tensor_ops.small_map((height, width), (kernel, kernel))

    matrix = tensor_ops.weight_matrix(weight)
    col = im2col(x, kernel, kernel, stride, pad).reshape(matrix.shape[1], -1)
    grads = grad_out.transpose(1, 2, 3, 0).reshape(c_out, -1)
    forward = np.dot(matrix, col).reshape(c_out, out_h, out_w, n).transpose(3, 0, 1, 2)
    cols = np.dot(matrix.T, grads).reshape(kernel, kernel, c_in, out_h, out_w, n)
    input_grad = col2im(cols, x.shape, kernel, kernel, stride, pad)
    weight_grad = np.dot(grads, col.T).reshape(c_out, kernel, kernel, c_in).transpose(0, 3, 1, 2)

    got = [
        conv2d_forward(x, weight, stride, pad),
        conv2d_input_grad(grad_out, weight, (height, width), stride, pad),
        conv2d_weight_grad(x, grad_out, (kernel, kernel), stride, pad),
    ]
    for value, want in zip(got, [forward, input_grad, weight_grad], strict=True):
        assert value.shape == want.shape
        assert np.ascontiguousarray(value).tobytes() == np.ascontiguousarray(want).tobytes()


class TestGeometryValidation:
    def test_input_grad_rejects_an_input_size_the_gradient_does_not_come_from(self, rng):
        grad_out = rng.normal(size=(2, 3, 4, 4))
        weight = rng.normal(size=(3, 2, 5, 5))
        # 8 -> (k5 s2 p2) -> 4 is right; 9 gives 5, 6 gives 3.
        assert conv2d_input_grad(grad_out, weight, (8, 8), 2, 2).shape == (2, 2, 8, 8)
        for wrong in [(9, 8), (8, 6), (16, 16)]:
            with pytest.raises(ValueError, match=r"size=.*kernel=\(5, 5\), stride=2, pad=2"):
                conv2d_input_grad(grad_out, weight, wrong, 2, 2)

    def test_transpose_layer_with_inconsistent_output_padding_names_the_geometry(self, rng):
        layer = Conv2DTranspose(2, 5, stride=2, padding=2, output_padding=1)
        layer.build((3, 4, 4), rng)
        layer.output_padding = 2  # not a size the virtual convolution maps back to 4
        with pytest.raises(ValueError, match="stride=2, pad=2"):
            layer.forward(rng.normal(size=(1, 3, 4, 4)))

    def test_weight_grad_rejects_disagreeing_operands(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        with pytest.raises(ValueError, match=r"kernel=\(3, 3\), stride=2, pad=1"):
            conv2d_weight_grad(x, rng.normal(size=(2, 4, 5, 4)), (3, 3), 2, 1)
        with pytest.raises(ValueError, match=r"kernel=\(3, 3\), stride=2, pad=1"):
            conv2d_weight_grad(x, rng.normal(size=(3, 4, 4, 4)), (3, 3), 2, 1)

    def test_columns_of_another_input_are_rejected(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        weight = rng.normal(size=(4, 3, 3, 3))
        other = im2col(rng.normal(size=(1, 3, 6, 6)), 3, 3, 1, 1)
        with pytest.raises(ValueError, match="Columns"):
            conv2d_forward(x, weight, 1, 1, col=other)
        with pytest.raises(ValueError, match="Columns"):
            col2im(other, x.shape, 3, 3, 1, 1)


class TestPlansAndBuffers:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_images_come_back_as_batch_innermost_views_without_a_copy(self, rng, layout):
        x = LAYOUTS[layout](rng.normal(size=(3, 2, 6, 6)).astype(np.float32))
        weight = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        col = im2col(x, 3, 3, 2, 1)
        out = conv2d_forward(x, weight, 2, 1, col=col)
        grad_out = LAYOUTS[layout](rng.normal(size=out.shape).astype(np.float32))
        images = {
            "conv2d_forward": out,
            "col2im": col2im(col, x.shape, 3, 3, 2, 1),
            "conv2d_input_grad": conv2d_input_grad(grad_out, weight, (6, 6), 2, 1),
        }
        for name, image in images.items():
            # A view (never a layout copy) of memory this call allocated,
            # with the batch innermost.
            assert image.base is not None and not image.flags.owndata, name
            assert image.strides[0] == image.itemsize, name
            for operand in (x, weight, col, grad_out):
                assert not np.shares_memory(image, operand), name
        # The forward output *is* the GEMM's (C_out, out_h, out_w, N) result.
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous

    def test_plan_cache_stays_bounded_under_many_batch_sizes(self, rng):
        for batch in range(1, 101):
            x = rng.normal(size=(batch, 2, 5, 5)).astype(np.float32)
            cols = im2col(x, 3, 3, 1, 1)
            np.testing.assert_array_equal(cols[1, 1], x.transpose(1, 2, 3, 0))
        plans = tensor_ops._local.plans
        assert len(plans) <= tensor_ops.MAX_PLANS
        # Least recently used goes first: the latest geometries are the ones kept.
        assert all(key[0][0] > 100 - tensor_ops.MAX_PLANS for key in plans)

    def test_returned_columns_are_never_written_again(self, rng):
        x1 = rng.normal(size=(2, 3, 6, 6))
        x2 = rng.normal(size=(2, 3, 6, 6))
        first = im2col(x1, 3, 3, 2, 1)
        snapshot = first.copy()
        second = im2col(x2, 3, 3, 2, 1)  # same plan, same staging buffer
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, snapshot)
        out = conv2d_input_grad(rng.normal(size=(2, 4, 3, 3)), rng.normal(size=(4, 3, 3, 3)), (6, 6), 2, 1)
        kept = out.copy()
        conv2d_input_grad(rng.normal(size=(2, 4, 3, 3)), rng.normal(size=(4, 3, 3, 3)), (6, 6), 2, 1)
        np.testing.assert_array_equal(out, kept)

    def test_padding_border_stays_zero_after_unpadded_looking_inputs(self, rng):
        # The staging buffer's border is written once, at plan creation.
        for _ in range(3):
            x = rng.normal(size=(1, 1, 3, 3)) + 10.0
            cols = im2col(x, 3, 3, 1, 1)
            assert cols[0, 0, 0, 0, 0, 0] == 0.0  # top-left window, top-left tap: padding
            assert cols[1, 1, 0, 0, 0, 0] == x[0, 0, 0, 0]

    def test_plans_are_per_thread(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        im2col(x, 3, 3, 1, 1)
        mine = tensor_ops._local.plans
        seen = {}

        def worker():
            im2col(x, 3, 3, 1, 1)
            seen["plans"] = tensor_ops._local.plans

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen["plans"] is not mine
        key = next(iter(seen["plans"]))
        assert seen["plans"][key] is not mine[key]

    def test_concurrent_same_geometry_convolutions_do_not_mix(self):
        # More threads than cores, all on one geometry, switching as often as
        # the interpreter allows: a staging buffer shared between threads
        # would hand one thread another's patches.
        rng = np.random.default_rng(9)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        inputs = [rng.normal(size=(4, 3, 8, 8)).astype(np.float32) for _ in range(6)]
        expected = [conv2d_forward(x, weight, 1, 1) for x in inputs]
        failures = []

        def worker(index):
            for _ in range(150):
                if not np.array_equal(conv2d_forward(inputs[index], weight, 1, 1), expected[index]):
                    failures.append(index)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


def _small_discriminator(seed):
    # Two conv layers of the *same* geometry (same plan) on purpose.
    return Sequential(
        [
            Conv2D(3, 3, stride=1, padding=1),
            LeakyReLU(0.2),
            Conv2D(3, 3, stride=1, padding=1),
            LeakyReLU(0.2),
            Flatten(),
            Dense(1),
        ],
        input_shape=(3, 6, 6),
        rng=np.random.default_rng(seed),
    )


def _train_step(model, optimizer, x, target):
    model.zero_grad()
    out = model.forward(x)
    model.backward(out - target, input_grad=False)
    optimizer.step(model)


class TestKeptColumns:
    def test_two_discriminators_stepped_alternately_equal_each_stepped_alone(self):
        rng = np.random.default_rng(3)
        batches = [(rng.normal(size=(4, 3, 6, 6)), rng.normal(size=(4, 1))) for _ in range(6)]

        alone = []
        for seed in (1, 2):
            model, optimizer = _small_discriminator(seed), Adam(learning_rate=0.01)
            for x, target in batches:
                _train_step(model, optimizer, x, target)
            alone.append(model.get_parameters())

        models = [_small_discriminator(seed) for seed in (1, 2)]
        optimizers = [Adam(learning_rate=0.01), Adam(learning_rate=0.01)]
        for x, target in batches:
            # Interleave at the finest grain the API allows: both forwards
            # (each keeps its columns), then both backwards.
            outs = [model.forward(x) for model in models]
            for model, optimizer, out in zip(models, optimizers, outs):
                model.zero_grad()
                model.backward(out - target, input_grad=False)
                optimizer.step(model)
        for model, expected in zip(models, alone):
            np.testing.assert_array_equal(model.get_parameters(), expected)

    def test_backward_uses_the_columns_of_the_latest_forward(self, rng):
        layer = Conv2D(2, 3, stride=2, padding=1)
        layer.build((3, 6, 6), rng)
        x1 = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        x2 = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        grad = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        layer.forward(x1)
        layer.forward(x2)
        layer.zero_grad()
        layer.backward(grad)
        np.testing.assert_array_equal(
            layer.grads["W"], conv2d_weight_grad(x2, grad, (3, 3), 2, 1)
        )

    def test_a_copied_layer_recomputes_the_columns_it_did_not_bring(self, rng):
        layer = Conv2D(2, 3, stride=1, padding=1)
        layer.build((2, 5, 5), rng)
        x = rng.normal(size=(3, 2, 5, 5)).astype(np.float32)
        grad = rng.normal(size=(3, 2, 5, 5)).astype(np.float32)
        layer.forward(x)
        for clone in (copy.deepcopy(layer), pickle.loads(pickle.dumps(layer)), copy.copy(layer)):
            assert clone._col is None and "_col" not in vars(clone)
            clone.grads = {key: np.zeros_like(value) for key, value in layer.grads.items()}
            layer.zero_grad()
            np.testing.assert_array_equal(clone.backward(grad), layer.backward(grad))
            np.testing.assert_array_equal(clone.grads["W"], layer.grads["W"])


class TestNothingTravels:
    def _sizes(self, model, optimizer):
        return (
            len(pickle.dumps(model)),
            len(pickle.dumps(copy.deepcopy(model))),
            len(pickle.dumps(optimizer)),
        )

    def test_pickle_and_deepcopy_carry_no_scratch_after_a_training_step(self, rng):
        x = rng.normal(size=(4, 3, 6, 6))
        target = rng.normal(size=(4, 1))

        # What a trained model carries today: parameters, gradients and the
        # activation caches of the last pass.  Take that from a model whose
        # conv layers have had their kept columns removed by hand.
        model, optimizer = _small_discriminator(1), Adam()
        _train_step(model, optimizer, x, target)
        convs = [layer for layer in model.layers if isinstance(layer, Conv2D)]
        assert all(layer._col is not None for layer in convs)
        with_columns = self._sizes(model, optimizer)
        for layer in convs:
            del layer._col
        assert optimizer._scratch is not None
        optimizer._scratch = None
        assert self._sizes(model, optimizer) == with_columns

        # And in absolute terms: a trained model outweighs a fresh one by the
        # caches only — well under the size of one conv layer's columns.
        fresh = len(pickle.dumps(_small_discriminator(1)))
        columns = sum(9 * layer._x.size * layer._x.itemsize for layer in convs)
        assert with_columns[0] - fresh < columns / 2

    def test_round_tripped_model_and_optimizer_keep_training_identically(self, rng):
        batches = [(rng.normal(size=(4, 3, 6, 6)), rng.normal(size=(4, 1))) for _ in range(4)]
        model, optimizer = _small_discriminator(1), Adam(learning_rate=0.01)
        for x, target in batches[:2]:
            _train_step(model, optimizer, x, target)
        model2, optimizer2 = pickle.loads(pickle.dumps((model, optimizer)))
        assert optimizer2._scratch is None
        for x, target in batches[2:]:
            _train_step(model, optimizer, x, target)
            _train_step(model2, optimizer2, x, target)
        np.testing.assert_array_equal(model.get_parameters(), model2.get_parameters())

    def test_get_parameters_is_parameters_only(self, rng):
        model = _small_discriminator(1)
        before = model.get_parameters().size
        model.forward(rng.normal(size=(4, 3, 6, 6)))
        assert model.get_parameters().size == before == model.num_parameters
