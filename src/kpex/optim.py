"""Adam over a name -> Tensor parameter dict, and the learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np


class MissingGradientError(RuntimeError):
    pass


def clear_grads(params):
    """Drop the gradient of every Tensor in the name -> Tensor dict ``params``."""
    for t in params.values():
        t.grad = None


class Adam:
    """Adam with bias-corrected first and second moment estimates.

    Moment buffers persist across steps; the learning rate is supplied per
    step so callers can drive any schedule. Gradients are consumed: a step
    clears them, so every step must be preceded by a fresh backward pass.
    """

    def __init__(self, registry, beta1=0.9, beta2=0.999, eps=1e-8):
        self.registry = registry
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in registry.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in registry.items()}

    def step(self, lr):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        for name, p in self.registry.items():
            if p.grad is None:
                raise MissingGradientError(f"parameter {name!r} has no gradient")
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for name, p in self.registry.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / correct1
            v_hat = v / correct2
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)
        clear_grads(self.registry)


def geometric_lr(step, total_steps, lr_start, lr_end):
    """Interpolate the learning rate geometrically from lr_start to lr_end.

    Linear in log space: lr(t) = exp(ln lr_start + (t/T)(ln lr_end - ln lr_start))
    for t in [0, T]. Steps past T clamp to lr_end.
    """
    if lr_start <= 0.0 or lr_end <= 0.0:
        raise ValueError("learning rates must be positive")
    if total_steps <= 0 or step >= total_steps:
        return lr_end
    if step <= 0:
        return lr_start
    frac = step / total_steps
    return math.exp(math.log(lr_start) + frac * (math.log(lr_end) - math.log(lr_start)))
