"""Adam optimizer over named parameter collections."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam with bias correction; update order is fixed by the
    insertion order of the parameter dict, so steps are deterministic."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = [(name, p) for name, p in params.items() if p.requires_grad]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, grads):
        """One update from `grads` ({parameter: gradient}, as backward()
        returns); a parameter without an entry is skipped."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in self.params:
            g = grads.get(p)
            if g is None:
                continue
            m, v = self._m[name], self._v[name]
            m *= b1
            m += g * (1.0 - b1)
            v *= b2
            v += g * g * (1.0 - b2)
            p.data -= m / bias1 / (np.sqrt(v / bias2) + self.eps) * self.lr


def parameters_of(*components):
    """Merge the .params dicts of several model components, preserving order."""
    merged = {}
    for comp in components:
        params = comp if isinstance(comp, dict) else comp.params
        for name, p in params.items():
            if name in merged:
                raise ValueError(f"duplicate parameter name {name!r}")
            merged[name] = p
    return merged


__all__ = ["Adam", "parameters_of"]
