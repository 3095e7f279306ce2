"""Gradient-descent optimizers operating on :class:`~repro.nn.model.Sequential`.

Optimizer state (momenta, Adam moments) is keyed by the parameter's
``"layer_index.param_name"`` identifier, which stays valid across parameter
serialisation because models update their parameter arrays in place.

The MD-GAN server additionally needs to apply Adam to a *gradient it did not
compute through its own loss* (the gradient assembled from worker error
feedbacks); ``step`` therefore simply consumes whatever is currently stored
in the model's gradient buffers.

Optimizer state (velocity, Adam moments) is allocated with ``zeros_like`` on
the gradient, so it follows the model's precision policy automatically — a
float32 model keeps float32 moments.  A parameter whose shape changed between
steps indicates a wiring bug (e.g. a discriminator swapped against a
different architecture) and raises instead of silently resetting state.

Updates run in place: the state arrays are allocated once per parameter and
every intermediate of a step goes through one scratch array per parameter,
so a step allocates nothing.  The scratch is working memory, not state — it
is left out of pickles and copies and rebuilt on the next step.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .model import Sequential

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer.  Subclasses implement :meth:`_update`."""

    def __init__(self, learning_rate: float = 0.001) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.iterations = 0
        self._scratch: Dict[str, np.ndarray] = {}

    def step(self, model: Sequential) -> None:
        """Apply one update using the gradients currently stored in ``model``."""
        self.iterations += 1
        for key, param, grad in model.named_parameters_and_grads():
            scratch = self._scratch.get(key)
            if scratch is None or scratch.shape != grad.shape or scratch.dtype != grad.dtype:
                scratch = self._scratch[key] = np.empty_like(grad)
            self._update(key, param, grad, scratch)

    def _update(self, key: str, param: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        """Update ``param`` in place; ``scratch`` is free working memory shaped like ``grad``."""
        raise NotImplementedError

    def _state_for(self, state: Dict[str, np.ndarray], key: str, grad: np.ndarray) -> np.ndarray:
        """The state array of ``key``: zeros on first use, a ``ValueError`` on a shape change."""
        value: Optional[np.ndarray] = state.get(key)
        if value is None:
            value = state[key] = np.zeros_like(grad)
        elif value.shape != grad.shape:
            raise ValueError(
                f"{type(self).__name__} state for {key!r} has shape {value.shape} but the "
                f"gradient has shape {grad.shape}; the model wiring "
                "changed mid-training (call reset() to start fresh)"
            )
        return value

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["_scratch"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._scratch = {}

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the optimizer hyper-parameters and internal state."""
        return {"learning_rate": self.learning_rate, "iterations": self.iterations}

    def reset(self) -> None:
        """Clear all accumulated state."""
        self.iterations = 0


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: Dict[str, np.ndarray] = {}

    def _update(self, key: str, param: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        np.multiply(grad, self.learning_rate, out=scratch)
        if self.momentum > 0.0:
            vel = self._state_for(self._velocity, key, grad)
            vel *= self.momentum
            vel -= scratch
            param += vel
        else:
            param -= scratch

    def reset(self) -> None:
        super().reset()
        self._velocity.clear()

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["momentum"] = self.momentum
        return state


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) — the optimizer used by the paper.

    The defaults ``beta1=0.5`` follow common GAN practice (DCGAN); the CelebA
    experiment in the paper overrides the betas per competitor, which the
    trainers expose through their configuration objects.
    """

    def __init__(
        self,
        learning_rate: float = 0.0002,
        beta1: float = 0.5,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}

    def _update(self, key: str, param: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        m = self._state_for(self._m, key, grad)
        v = self._state_for(self._v, key, grad)
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        m *= self.beta1
        m += scratch
        np.square(grad, out=scratch)
        scratch *= 1.0 - self.beta2
        v *= self.beta2
        v += scratch
        t = self.iterations
        # param -= lr * m_hat / (sqrt(v_hat) + eps), the two bias corrections
        # folded into scalars.
        np.divide(v, 1.0 - self.beta2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(m, scratch, out=scratch)
        scratch *= self.learning_rate / (1.0 - self.beta1**t)
        param -= scratch

    def reset(self) -> None:
        super().reset()
        self._m.clear()
        self._v.clear()

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state.update(beta1=self.beta1, beta2=self.beta2, eps=self.eps)
        return state


def make_optimizer(name: str, **kwargs) -> Optimizer:
    """Factory used by experiment configuration files."""
    name = name.lower()
    if name == "adam":
        return Adam(**kwargs)
    if name == "sgd":
        return SGD(**kwargs)
    raise ValueError(f"Unknown optimizer {name!r}; expected 'adam' or 'sgd'")


__all__.append("make_optimizer")
