"""Tests for the precision policy subsystem (``repro.nn.precision``).

The policy's contract: float32 is the process-wide default, float64 is an
explicit opt-in, and once a model is built under a policy every parameter,
activation, gradient and optimizer moment stays in that dtype — no hidden
float64 upcasts on the forward/backward/update path.
"""

import numpy as np
import pytest

from repro.nn import (
    FLOAT32,
    FLOAT64,
    Adam,
    BatchNorm,
    Conv2D,
    Conv2DTranspose,
    Dense,
    Dropout,
    Flatten,
    GaussianNoise,
    LeakyReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Tanh,
    bce_with_logits,
    get_default_precision,
    precision_scope,
    resolve_precision,
    set_default_precision,
    softmax_cross_entropy,
)
from repro.nn.precision import as_dtype, resolve_dtype


class TestPolicyResolution:
    def test_default_is_float32(self):
        assert get_default_precision() is FLOAT32
        assert resolve_dtype(None) == np.float32

    def test_resolve_accepts_many_spellings(self):
        for spec in ("float64", np.float64, np.dtype(np.float64), FLOAT64):
            assert resolve_precision(spec) is FLOAT64

    def test_resolve_rejects_unsupported(self):
        with pytest.raises(ValueError, match="Unsupported precision"):
            resolve_precision("float16")
        with pytest.raises(ValueError):
            resolve_precision(object())

    def test_scope_restores_previous_policy(self):
        assert get_default_precision() is FLOAT32
        with precision_scope("float64"):
            assert get_default_precision() is FLOAT64
            with precision_scope("float32"):
                assert get_default_precision() is FLOAT32
            assert get_default_precision() is FLOAT64
        assert get_default_precision() is FLOAT32

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with precision_scope("float64"):
                raise RuntimeError("boom")
        assert get_default_precision() is FLOAT32

    def test_set_default_precision_roundtrip(self):
        try:
            assert set_default_precision("float64") is FLOAT64
            assert get_default_precision() is FLOAT64
        finally:
            set_default_precision("float32")

    def test_as_dtype_avoids_copies(self):
        x = np.ones(4, dtype=np.float32)
        assert as_dtype(x, np.dtype(np.float32)) is x
        y = as_dtype(x, np.dtype(np.float64))
        assert y.dtype == np.float64 and y is not x


def _stack(dtype=None):
    return Sequential(
        [
            Dense(16),
            BatchNorm(),
            LeakyReLU(0.2),
            Dropout(0.25),
            Reshape((1, 4, 4)),
            Conv2D(4, 3, padding="same"),
            Tanh(),
            Conv2DTranspose(2, 3, stride=1, padding="same"),
            GaussianNoise(0.05),
            Flatten(),
            Dense(3),
            Sigmoid(),
        ],
        input_shape=(6,),
        rng=np.random.default_rng(0),
        dtype=dtype,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestModelDtypePreservation:
    def test_parameters_and_grads_built_in_policy_dtype(self, dtype):
        model = _stack(dtype)
        assert model.dtype == np.dtype(dtype)
        for layer in model.layers:
            for array in (*layer.params.values(), *layer.grads.values()):
                assert array.dtype == np.dtype(dtype)

    def test_forward_backward_stay_in_policy_dtype(self, dtype):
        model = _stack(dtype)
        x = np.random.default_rng(1).normal(size=(5, 6))  # float64 input
        out = model.forward(x, training=True)
        assert out.dtype == np.dtype(dtype)
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.dtype == np.dtype(dtype)
        for layer in model.layers:
            for grad in layer.grads.values():
                assert grad.dtype == np.dtype(dtype)

    def test_parameter_roundtrip_preserves_dtype(self, dtype):
        model = _stack(dtype)
        flat = model.get_parameters()
        assert flat.dtype == np.dtype(dtype)
        model.set_parameters(flat.astype(np.float64))  # wire may be f64
        for _, param in model.named_parameters():
            assert param.dtype == np.dtype(dtype)
        assert model.get_gradients().dtype == np.dtype(dtype)

    def test_optimizer_state_follows_policy(self, dtype):
        model = _stack(dtype)
        opt = Adam(learning_rate=1e-3)
        x = np.random.default_rng(2).normal(size=(4, 6))
        out = model.forward(x, training=True)
        model.zero_grad()
        model.backward(np.ones_like(out))
        opt.step(model)
        assert opt._m.dtype == opt._v.dtype == np.dtype(dtype)
        for _, param in model.named_parameters():
            assert param.dtype == np.dtype(dtype)

    def test_loss_gradients_match_logit_dtype(self, dtype):
        logits = np.random.default_rng(3).normal(size=(6, 1)).astype(dtype)
        _, grad = bce_with_logits(logits, np.zeros_like(logits))
        assert grad.dtype == np.dtype(dtype)
        cls_logits = np.random.default_rng(4).normal(size=(6, 5)).astype(dtype)
        labels = np.arange(6) % 5
        _, grad_cls = softmax_cross_entropy(cls_logits, labels)
        assert grad_cls.dtype == np.dtype(dtype)

    def test_clone_architecture_keeps_policy(self, dtype):
        model = _stack(dtype)
        clone = model.clone_architecture()
        clone.build((6,), np.random.default_rng(5))
        assert clone.dtype == np.dtype(dtype)
        assert clone.get_parameters().dtype == np.dtype(dtype)


class TestPolicySelectsModelDtype:
    def test_scope_governs_unannotated_models(self):
        with precision_scope("float64"):
            model = Sequential([Dense(3)], input_shape=(2,))
        assert model.dtype == np.float64
        model32 = Sequential([Dense(3)], input_shape=(2,))
        assert model32.dtype == np.float32

    def test_float32_halves_parameter_memory(self):
        m32 = Sequential([Dense(64)], input_shape=(32,), dtype=np.float32)
        m64 = Sequential([Dense(64)], input_shape=(32,), dtype=np.float64)
        bytes32 = sum(p.nbytes for _, p in m32.named_parameters())
        bytes64 = sum(p.nbytes for _, p in m64.named_parameters())
        assert bytes64 == 2 * bytes32
