"""Gradient-descent optimizers operating on :class:`~repro.nn.model.Sequential`.

A step updates the model's ``params_flat`` from its ``grads_flat`` in one
elementwise pass, which is bitwise equal to updating each parameter on its
own; the state (momenta, Adam moments) is one vector per kind, laid out like
those buffers and valid across parameter serialisation because models write
their vectors in place.

The MD-GAN server additionally needs to apply Adam to a *gradient it did not
compute through its own loss* (the gradient assembled from worker error
feedbacks); ``step`` therefore simply consumes whatever is currently stored
in the model's gradient buffer.

State is allocated with ``zeros_like`` on the gradient, so it follows the
model's precision policy — a float32 model keeps float32 moments.  It records
the parameter shapes it was built for: a model with another layout indicates
a wiring bug (e.g. a discriminator swapped against a different architecture)
and raises instead of silently resetting state.

Updates run in place through one scratch vector, so a step allocates nothing.
The scratch is working memory, not state — it is left out of pickles and
copies and rebuilt on the next step.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .model import Sequential

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer.  Subclasses name their state and implement :meth:`_update`."""

    #: Attribute names of the state vectors, each laid out like ``grads_flat``.
    _state_names: Tuple[str, ...] = ()

    def __init__(self, learning_rate: float = 0.001) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.reset()

    def step(self, model: Sequential) -> None:
        """Apply one update using the gradients currently stored in ``model``."""
        self.iterations += 1
        grad = model.grads_flat
        if self._shapes is None:
            self._shapes = model.param_shapes
            for name in self._state_names:
                setattr(self, name, np.zeros_like(grad))
        elif self._shapes != model.param_shapes:
            raise ValueError(
                f"{type(self).__name__} state has parameter shapes {self._shapes} but the "
                f"model has shapes {model.param_shapes}; the model wiring "
                "changed mid-training (call reset() to start fresh)"
            )
        if self._scratch is None:
            self._scratch = np.empty_like(grad)
        self._update(model.params_flat, grad, self._scratch)

    def _update(self, param: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        """Update ``param`` in place; ``scratch`` is free working memory shaped like ``grad``."""
        raise NotImplementedError

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "_scratch": None}

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the optimizer hyper-parameters and internal state."""
        return {"learning_rate": self.learning_rate, "iterations": self.iterations}

    def reset(self) -> None:
        """Clear all accumulated state."""
        self.iterations = 0
        #: Parameter shapes the state was allocated for; ``None`` until a step.
        self._shapes = self._scratch = None
        for name in self._state_names:
            setattr(self, name, None)


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    _state_names = ("_velocity",)

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)

    def _update(self, param: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        np.multiply(grad, self.learning_rate, out=scratch)
        if self.momentum > 0.0:
            vel = self._velocity
            vel *= self.momentum
            vel -= scratch
            param += vel
        else:
            param -= scratch

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

    _state_names = ("_m", "_v")

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

    def _update(self, param: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        m, v = self._m, self._v
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
