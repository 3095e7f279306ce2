"""Unit tests for the core (non-convolutional) layers."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm,
    Dense,
    Dropout,
    Flatten,
    GaussianNoise,
    LayerNorm,
    LeakyReLU,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
    UpSampling2D,
)


def build(layer, shape, rng):
    layer.build(shape, rng)
    return layer


class TestDense:
    def test_output_shape_and_params(self, rng):
        layer = build(Dense(7), (5,), rng)
        assert layer.output_shape == (7,)
        assert layer.params["W"].shape == (5, 7)
        assert layer.params["b"].shape == (7,)
        assert layer.num_params == 5 * 7 + 7

    def test_forward_matches_matmul(self, rng):
        layer = build(Dense(3), (4,), rng)
        x = rng.normal(size=(6, 4))
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.params["W"] + layer.params["b"]
        )

    def test_backward_shapes_and_accumulation(self, rng):
        layer = build(Dense(3), (4,), rng)
        x = rng.normal(size=(6, 4))
        layer.forward(x)
        grad_in = layer.backward(np.ones((6, 3)))
        assert grad_in.shape == x.shape
        first = layer.grads["W"].copy()
        layer.forward(x)
        layer.backward(np.ones((6, 3)))
        np.testing.assert_allclose(layer.grads["W"], 2 * first)

    def test_no_bias(self, rng):
        layer = build(Dense(3, use_bias=False), (4,), rng)
        assert "b" not in layer.params

    def test_rejects_non_flat_input(self, rng):
        with pytest.raises(ValueError, match="flat inputs"):
            build(Dense(3), (4, 5), rng)

    def test_rejects_nonpositive_units(self):
        with pytest.raises(ValueError):
            Dense(0)

    def test_backward_before_forward_raises(self, rng):
        layer = build(Dense(3), (4,), rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 3)))


class TestShapes:
    def test_flatten_roundtrip(self, rng):
        layer = build(Flatten(), (2, 3, 4), rng)
        x = rng.normal(size=(5, 2, 3, 4))
        out = layer.forward(x)
        assert out.shape == (5, 24)
        assert layer.backward(out).shape == x.shape

    def test_reshape_roundtrip(self, rng):
        layer = build(Reshape((2, 3, 4)), (24,), rng)
        x = rng.normal(size=(5, 24))
        out = layer.forward(x)
        assert out.shape == (5, 2, 3, 4)
        np.testing.assert_array_equal(layer.backward(out), x)

    def test_reshape_size_mismatch(self, rng):
        with pytest.raises(ValueError, match="Cannot reshape"):
            build(Reshape((2, 3)), (24,), rng)


class TestActivations:
    def test_relu_values_and_grad(self, rng):
        layer = build(ReLU(), (4,), rng)
        x = np.array([[-1.0, 0.0, 2.0, -3.0]])
        out = layer.forward(x)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0, 0.0]])
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0, 0.0]])

    def test_leaky_relu(self, rng):
        layer = build(LeakyReLU(0.1), (2,), rng)
        x = np.array([[-2.0, 4.0]])
        np.testing.assert_allclose(layer.forward(x), [[-0.2, 4.0]])
        np.testing.assert_allclose(layer.backward(np.ones_like(x)), [[0.1, 1.0]])

    def test_sigmoid_range_and_extremes(self, rng):
        layer = build(Sigmoid(), (3,), rng)
        x = np.array([[-1000.0, 0.0, 1000.0]])
        out = layer.forward(x)
        assert np.all((out >= 0) & (out <= 1))
        np.testing.assert_allclose(out[0, 1], 0.5)
        assert np.isfinite(layer.backward(np.ones_like(x))).all()

    def test_tanh_matches_numpy(self, rng):
        layer = build(Tanh(), (5,), rng)
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(layer.forward(x), np.tanh(x))

    def test_softmax_rows_sum_to_one(self, rng):
        layer = build(Softmax(), (6,), rng)
        out = layer.forward(rng.normal(size=(4, 6)) * 50)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4))

    def test_softmax_backward_orthogonal_to_constant(self, rng):
        # Adding a constant to the upstream gradient must not change the
        # input gradient (softmax is invariant to constant logit shifts).
        layer = build(Softmax(), (5,), rng)
        x = rng.normal(size=(3, 5))
        layer.forward(x)
        g = rng.normal(size=(3, 5))
        base = layer.backward(g)
        layer.forward(x)
        shifted = layer.backward(g + 10.0)
        np.testing.assert_allclose(base, shifted, atol=1e-10)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = build(Dropout(0.5), (10,), rng)
        x = rng.normal(size=(4, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_mode_scales_surviving_units(self, rng):
        layer = build(Dropout(0.5), (1000,), rng)
        x = np.ones((2, 1000))
        out = layer.forward(x, training=True)
        kept = out != 0
        np.testing.assert_allclose(out[kept], 2.0)
        # Expected keep fraction around 0.5.
        assert 0.4 < kept.mean() < 0.6

    def test_backward_uses_same_mask(self, rng):
        layer = build(Dropout(0.3), (50,), rng)
        x = np.ones((3, 50))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_normalises_features_2d(self, rng):
        layer = build(BatchNorm(), (6,), rng)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 6))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_normalises_channels_4d(self, rng):
        layer = build(BatchNorm(), (3, 5, 5), rng)
        x = rng.normal(loc=-1.0, scale=4.0, size=(8, 3, 5, 5))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)

    def test_running_statistics_used_at_eval(self, rng):
        layer = build(BatchNorm(momentum=0.0), (4,), rng)
        x = rng.normal(loc=5.0, size=(32, 4))
        layer.forward(x, training=True)
        # With momentum 0 the running stats equal the last batch stats, so
        # evaluating the same batch gives (nearly) normalised outputs.
        out = layer.forward(x, training=False)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)

    def test_backward_shape(self, rng):
        layer = build(BatchNorm(), (3, 4, 4), rng)
        x = rng.normal(size=(6, 3, 4, 4))
        layer.forward(x, training=True)
        grad = layer.backward(rng.normal(size=x.shape))
        assert grad.shape == x.shape
        assert layer.grads["gamma"].shape == (3,)


def batchnorm_reference(x, grad, gamma, beta, eps, stats=None):
    """Float64 BatchNorm over every axis but 1: output, input grad, gamma/beta grads, stats."""
    x, grad = x.astype(np.float64), grad.astype(np.float64)
    axes, shape = (0,) + tuple(range(2, x.ndim)), (1, -1) + (1,) * (x.ndim - 2)
    mean, var = (x.mean(axis=axes), x.var(axis=axes)) if stats is None else stats
    std = np.sqrt(np.asarray(var, np.float64) + eps).reshape(shape)
    xhat = (x - np.asarray(mean, np.float64).reshape(shape)) / std
    scale = np.asarray(gamma, np.float64).reshape(shape)
    out = scale * xhat + np.asarray(beta, np.float64).reshape(shape)
    dxhat = grad * scale
    if stats is None:
        dxhat = dxhat - dxhat.mean(axis=axes, keepdims=True)
        dxhat -= xhat * (grad * scale * xhat).mean(axis=axes, keepdims=True)
    grads = (grad * xhat).sum(axis=axes), grad.sum(axis=axes)
    return out, dxhat / std, grads, (mean, var)


def batch_innermost(image):
    """The same NCHW values backed by ``(C, H, W, N)`` memory, as a convolution returns them."""
    return np.ascontiguousarray(image.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


#: How BatchNorm inputs arrive: a dense layer's rows, C-contiguous images, a conv's memory.
BATCHNORM_INPUTS = {
    "dense": ((5,), np.ascontiguousarray),
    "nchw": ((3, 4, 4), np.ascontiguousarray),
    "chwn": ((3, 4, 4), batch_innermost),
}


class TestBatchNormAgainstFloat64:
    TOL = {np.float32: dict(rtol=2e-5, atol=2e-5), np.float64: dict(rtol=1e-12, atol=1e-12)}

    def _layer(self, shape, dtype, rng, momentum=0.8):
        layer = BatchNorm(momentum=momentum)
        layer.dtype = np.dtype(dtype)
        layer.build(shape, rng)
        layer.params["gamma"][...] = rng.normal(size=shape[:1])
        layer.params["beta"][...] = rng.normal(size=shape[:1])
        layer.running_mean[...] = rng.normal(size=shape[:1])
        layer.running_var[...] = rng.uniform(0.5, 2.0, size=shape[:1])
        return layer

    @pytest.mark.parametrize("kind", sorted(BATCHNORM_INPUTS))
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pass_and_running_statistics(self, rng, kind, training, dtype):
        shape, arrange = BATCHNORM_INPUTS[kind]
        layer = self._layer(shape, dtype, rng)
        x = arrange(rng.normal(loc=2.0, scale=3.0, size=(7,) + shape).astype(dtype))
        grad = arrange(rng.normal(size=x.shape).astype(dtype))
        before = (layer.running_mean.copy(), layer.running_var.copy())
        gamma, beta = layer.params["gamma"].copy(), layer.params["beta"].copy()
        out = layer.forward(x, training=training)
        dx = layer.backward(grad)
        want = batchnorm_reference(x, grad, gamma, beta, layer.eps, None if training else before)
        tol = self.TOL[dtype]
        assert out.dtype == dx.dtype == dtype
        np.testing.assert_allclose(out, want[0], **tol)
        np.testing.assert_allclose(dx, want[1], **tol)
        np.testing.assert_allclose(layer.grads["gamma"], want[2][0], **tol)
        np.testing.assert_allclose(layer.grads["beta"], want[2][1], **tol)
        mean, var = want[3]
        if training:
            before = tuple(0.8 * r + 0.2 * s for r, s in zip(before, (mean, var)))
            np.testing.assert_allclose(layer.segment_stats[0][0], mean, **tol)
            np.testing.assert_allclose(layer.segment_stats[0][1], var, **tol)
        np.testing.assert_allclose(layer.running_mean, before[0], **tol)
        np.testing.assert_allclose(layer.running_var, before[1], **tol)

    @pytest.mark.parametrize("kind", sorted(BATCHNORM_INPUTS))
    @pytest.mark.parametrize("training", [True, False])
    def test_snapshot_restricted_to_a_segment_is_that_segment_alone(self, rng, kind, training):
        shape, arrange = BATCHNORM_INPUTS[kind]
        model = Sequential([BatchNorm()], input_shape=shape, rng=rng)
        layer = model.layers[0]
        layer.params["gamma"][...] = rng.normal(size=shape[:1])
        x = arrange(rng.normal(size=(9,) + shape).astype(model.dtype))
        grad = rng.normal(size=(5,) + shape).astype(model.dtype)
        stats = (layer.running_mean.copy(), layer.running_var.copy())
        model.forward(x, training=training, segments=[4, 5])
        frozen = model.snapshot((1, 4, 9))
        dx = frozen.backward(grad)
        gamma, beta = layer.params["gamma"], layer.params["beta"]
        stats = None if training else stats
        want = batchnorm_reference(x[4:9], grad, gamma, beta, layer.eps, stats)
        np.testing.assert_allclose(dx, want[1], rtol=2e-5, atol=2e-5)
        if training:
            ((mean, var),) = frozen.batch_stats()
            np.testing.assert_allclose(mean, want[3][0], rtol=2e-5, atol=2e-5)
            np.testing.assert_allclose(var, want[3][1], rtol=2e-5, atol=2e-5)


class TestLayerNorm:
    def test_normalises_per_sample(self, rng):
        layer = build(LayerNorm(), (10,), rng)
        x = rng.normal(loc=2.0, scale=3.0, size=(7, 10))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-7)

    def test_backward_shape(self, rng):
        layer = build(LayerNorm(), (4, 3, 3), rng)
        x = rng.normal(size=(5, 4, 3, 3))
        layer.forward(x)
        assert layer.backward(np.ones_like(x)).shape == x.shape


class TestUpSampling:
    def test_forward_repeats_pixels(self, rng):
        layer = build(UpSampling2D(2), (1, 2, 2), rng)
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        out = layer.forward(x)
        assert out.shape == (1, 1, 4, 4)
        # Each input pixel becomes a 2x2 block of its own value.
        np.testing.assert_array_equal(out[0, 0, :2, :2], 0.0)
        np.testing.assert_array_equal(out[0, 0, :2, 2:], 1.0)
        np.testing.assert_array_equal(out[0, 0, 2:, :2], 2.0)
        np.testing.assert_array_equal(out[0, 0, 2:, 2:], 3.0)

    def test_backward_sums_gradient(self, rng):
        layer = build(UpSampling2D(2), (1, 2, 2), rng)
        x = rng.normal(size=(3, 1, 2, 2))
        layer.forward(x)
        grad = layer.backward(np.ones((3, 1, 4, 4)))
        np.testing.assert_allclose(grad, 4.0)


class TestGaussianNoise:
    def test_eval_identity_and_training_perturbs(self, rng):
        layer = build(GaussianNoise(0.5), (20,), rng)
        x = np.zeros((4, 20))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)
        assert np.any(layer.forward(x, training=True) != 0)

    def test_backward_passthrough(self, rng):
        layer = build(GaussianNoise(0.5), (20,), rng)
        layer.forward(np.zeros((4, 20)), training=True)
        g = rng.normal(size=(4, 20))
        np.testing.assert_array_equal(layer.backward(g), g)
