"""Stochastic gradient descent with classical momentum."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DimensionError


def sgd_momentum_step(param, grad, velocity, lr: float, momentum: float):
    """One update:  v <- momentum*v - lr*g;  p <- p + v.  Returns (p, v)."""
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    if grad.shape != param.shape or velocity.shape != param.shape:
        raise DimensionError(
            f"parameter {param.shape}, gradient {grad.shape}, velocity {velocity.shape} must agree"
        )
    v = momentum * velocity - lr * grad
    return param + v, v


class SgdMomentum:
    """Per-array velocity state over a list of LayerParams."""

    def __init__(self, lr: float, momentum: float = 0.9):
        if not (math.isfinite(lr) and lr > 0):
            raise ConfigError(f"learning rate must be finite and positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: dict[tuple[int, str], np.ndarray] = {}

    def step(self, layers, grads) -> None:
        """Apply one update given per-layer gradient dicts aligned with `layers`."""
        for idx, (layer, g) in enumerate(zip(layers, grads)):
            if not g:
                continue
            for field, arr in layer.learnable():
                if field not in g:
                    continue
                key = (idx, field)
                v = self._velocity.get(key)
                if v is None:
                    v = np.zeros_like(arr)
                new_p, new_v = sgd_momentum_step(arr, g[field], v, self.lr, self.momentum)
                setattr(layer, field, new_p)
                self._velocity[key] = new_v
