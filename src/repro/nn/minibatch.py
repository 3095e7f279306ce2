"""Minibatch discrimination layer (Salimans et al., 2016).

The paper's CNN discriminators include a minibatch-discrimination layer to
mitigate mode collapse: each sample's features are compared to every other
sample in the batch and a per-sample "closeness" statistic is appended to the
feature vector, letting the discriminator detect generators that produce
near-identical samples.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from . import initializers as init
from .layers import Layer, Segments, segment_rows, stack_segments

__all__ = ["MinibatchDiscrimination"]


class MinibatchDiscrimination(Layer):
    """Append cross-batch similarity statistics to flat feature vectors.

    Parameters
    ----------
    num_kernels:
        Number of discrimination kernels ``B``; the layer appends ``B`` extra
        features per sample.
    kernel_dim:
        Dimensionality ``C`` of each kernel's projection space.

    In a segmented pass each sample is compared only to its own segment's.
    """

    segmented_forward = True
    _row_caches = ("_x",)

    def __init__(
        self,
        num_kernels: int = 16,
        kernel_dim: int = 8,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if num_kernels <= 0 or kernel_dim <= 0:
            raise ValueError("num_kernels and kernel_dim must be positive")
        self.num_kernels = int(num_kernels)
        self.kernel_dim = int(kernel_dim)

    def compute_output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(
                "MinibatchDiscrimination expects flat inputs, got "
                f"per-sample shape {input_shape}"
            )
        return (input_shape[0] + self.num_kernels,)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        features = int(input_shape[0])
        self.add_param(
            "T",
            (features, self.num_kernels * self.kernel_dim),
            rng,
            init.normal(stddev=0.05),
        )
        super().build(input_shape, rng)

    def forward(
        self, x: np.ndarray, training: bool = True, segments: Segments = None
    ) -> np.ndarray:
        del training
        b, c = self.num_kernels, self.kernel_dim
        self._x = x
        # Per segment, projection included: a GEMM row is not bitwise
        # independent of the row count at every shape.
        self._pairs, closeness = [], []
        for start, stop in segments or ((0, len(x)),):
            ms = (segment_rows(x, start, stop) @ self.params["T"]).reshape(stop - start, b, c)
            # diffs[i, j, b, c] = M_i - M_j
            diffs = ms[:, None, :, :] - ms[None, :, :, :]
            sign = np.sign(diffs)
            k = np.exp(-np.abs(diffs).sum(axis=-1))
            self._pairs.append((sign, k))
            # o_i[b] = sum_{j != i} exp(-||M_i - M_j||_1); the j = i term is
            # exp(0) = 1 and is removed.
            closeness.append(k.sum(axis=1) - 1.0)
        return np.concatenate([x, stack_segments(closeness)], axis=1)

    def __getstate__(self) -> Dict[str, object]:
        # The pairwise terms are a forward cache, like _x: they never travel.
        state = self.__dict__.copy()
        state.pop("_pairs", None)
        return state

    def restrict(self, segment: int, start: int, stop: int) -> None:
        super().restrict(segment, start, stop)
        self._pairs = [self._pairs[segment]]

    def backward(
        self,
        grad_out: np.ndarray,
        *,
        param_grads: bool = True,
        input_grad: bool = True,
        segments: Segments = None,
    ) -> Optional[np.ndarray]:
        features = self._x.shape[1]
        grads_in = []
        for (start, stop), (sign, k) in zip(
            segments or ((0, len(grad_out)),), self._pairs, strict=True
        ):
            n = stop - start
            do = grad_out[start:stop, features:]
            # dK[i, j, b]: o_i[b] sums K[i, j, b] over j (excluding j = i).
            dk = np.repeat(do[:, None, :], n, axis=1)
            idx = np.arange(n)
            dk[idx, idx, :] = 0.0

            dl1 = -k * dk
            ddiffs = sign * dl1[..., None]
            # M_i appears positively in diffs[i, :, ...] and negatively in
            # diffs[:, i, ...].
            dm_flat = (ddiffs.sum(axis=1) - ddiffs.sum(axis=0)).reshape(n, -1)
            if param_grads:
                self.grads["T"] += segment_rows(self._x, start, stop).T @ dm_flat
            if input_grad:
                dx_direct = grad_out[start:stop, :features]
                grads_in.append(dx_direct + dm_flat @ self.params["T"].T)
        if not input_grad:
            return None
        return stack_segments(grads_in)
