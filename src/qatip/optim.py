"""Adam with bias correction, plus global gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from .tensor import Parameter, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _tensors(params) -> list[Tensor]:
    return [p.tensor if isinstance(p, Parameter) else p for p in params]


def clip_global_norm(params, max_norm: float = 5.0) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm.

    Returns the pre-clip norm.  Missing gradients count as zero.
    """
    tensors = _tensors(params)
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for t in tensors:
            if t.grad is not None:
                t.grad *= np.array(factor, dtype=t.grad.dtype)
    return norm


class Adam:
    """Adam update: p <- p - lr * m_hat / (sqrt(v_hat) + EPS), with moment decays BETA1 and BETA2.

    EPS sits outside the square root, so a first step on any nonzero
    gradient moves each coordinate by almost exactly lr.
    """

    def __init__(self, params, lr: float = 0.001):
        self.params = _tensors(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
