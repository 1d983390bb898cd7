"""Central finite-difference verification of reverse-mode gradients.

Gradient checking is only reliable in float64; callers must build their
parameters at that precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import NumericsError, Tensor

# Relative error uses a small magnitude floor so that near-zero gradients do
# not make finite-difference noise look like a real mismatch.
REL_ERR_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    worst_param: str = ""
    worst_index: tuple = ()
    per_param: dict = field(default_factory=dict)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"gradcheck {status}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e})"
            f" at {self.worst_param}{list(self.worst_index)}"
        )


def _eval_loss(f):
    out = f()
    value = out.item() if isinstance(out, Tensor) else float(out)
    if not np.isfinite(value):
        raise NumericsError(f"loss evaluated to non-finite value {value}")
    return value


def check_gradients(f, params, step=1e-5, tol=1e-4):
    """Compare autodiff gradients of the scalar `f()` with central differences.

    `params` maps names to float64 leaf tensors that `f` closes over. Each
    parameter element is perturbed by +/-step; the check passes iff the worst
    relative error (floored at REL_ERR_FLOOR magnitude) is below `tol`.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"step {step} outside the reliable range [1e-7, 1e-3]")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise TypeError(f"gradient check requires float64 params, {name} is {p.data.dtype}")

    out = f()
    if not isinstance(out, Tensor) or out.size != 1:
        raise ValueError("f must return a scalar Tensor")
    if not np.isfinite(out.data).all():
        raise NumericsError("loss evaluated to a non-finite value")
    grads = out.backward()
    analytic = {name: grads.get(p, np.zeros_like(p.data)) for name, p in params.items()}

    report = GradCheckReport(max_rel_err=0.0, tol=tol, passed=True)
    for name, p in params.items():
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = _eval_loss(f)
            flat[i] = orig - step
            down = _eval_loss(f)
            flat[i] = orig
            nflat[i] = (up - down) / (2.0 * step)
        diff = np.abs(analytic[name] - numeric)
        scale = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), REL_ERR_FLOOR)
        rel = diff / scale
        worst = np.unravel_index(np.argmax(rel), rel.shape) if rel.size else ()
        param_err = float(rel.max()) if rel.size else 0.0
        report.per_param[name] = param_err
        if param_err > report.max_rel_err:
            report.max_rel_err = param_err
            report.worst_param = name
            report.worst_index = worst
    report.passed = report.max_rel_err < tol
    return report
