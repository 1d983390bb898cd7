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
        # step() works in views of two scratch rows per dtype, as long as the largest parameter
        rows = {p.dtype: np.empty((2, max(q.size for _, q in self.params)), p.dtype) for _, p in self.params}
        self._scratch = {name: [r[: p.size].reshape(p.shape) for r in rows[p.dtype]] for name, p in self.params}

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m, v, (s1, s2) = self._m[name], self._v[name], self._scratch[name]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s1)
            v *= b2
            v += np.multiply(np.multiply(g, g, out=s1), 1.0 - b2, out=s1)
            denom = np.add(np.sqrt(np.divide(v, bias2, out=s1), out=s1), self.eps, out=s1)
            p.data -= np.multiply(np.divide(np.divide(m, bias1, out=s2), denom, out=s2), self.lr, out=s2)


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


def require_grad(params, flag):
    """Set requires_grad on every tensor of a parameter dict."""
    for p in params.values():
        p.requires_grad = flag
        if not flag:
            p.grad = None


__all__ = ["Adam", "parameters_of", "require_grad"]
