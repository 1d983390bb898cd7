"""Grouping block: Gumbel-softmax assignment of image tokens to semantic
tokens, straight-through hardening, and per-group feature merging.

The soft assignment is a softmax over groups for every image token; the hard
assignment keeps the one-hot argmax value in the forward pass while passing
the soft gradient straight through. Merged group features are normalized by
assignment mass, so an empty group returns its semantic token unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .tensor import NumericsError, ShapeError, Tensor

MODE_TRAIN = "train"
MODE_EVAL = "eval"


@dataclass
class GroupingParams:
    w_query: Tensor  # (C, C) applied to semantic tokens
    w_key: Tensor  # (C, C) applied to image tokens
    w_value: Tensor  # (C, C) value projection before merging
    w_out: Tensor  # (C, C) projection of the merged feature
    temperature: float = 1.0
    eps: float = 1e-6

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @classmethod
    def create(cls, dim, rng, dtype=np.float32, temperature=1.0, eps=1e-6):
        # the query/key scale is deliberately generous: semantic tokens start
        # near zero, and initial logits must be able to compete with the
        # Gumbel noise or every image token collapses onto one group
        def w(scale):
            return Tensor((rng.standard_normal((dim, dim)) * scale).astype(dtype), requires_grad=True)

        qk = 3.0 / np.sqrt(dim)
        vo = 1.0 / np.sqrt(dim)
        return cls(w(qk), w(qk), w(vo), w(vo), temperature=temperature, eps=eps)

    @property
    def params(self):
        return {
            "w_query": self.w_query,
            "w_key": self.w_key,
            "w_value": self.w_value,
            "w_out": self.w_out,
        }


def gumbel_from_uniform(u):
    """Inverse-CDF transform: u in (0,1) -> standard Gumbel sample."""
    return -np.log(-np.log(u))


def sample_gumbel(shape, seed):
    """Seeded i.i.d. Gumbel(0,1) noise; identical seeds give identical bits."""
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    u = np.maximum(u, np.finfo(np.float64).tiny)  # u=0 would blow up the outer log
    return gumbel_from_uniform(u)


def similarity(sem_out, img_out, params, gamma=None):
    """Soft assignment (…,N,M): softmax over groups of the scaled projected
    dot products plus per-group Gumbel noise `gamma` (…,N,1), if given.
    Every column sums to 1."""
    q = T.matmul(sem_out, params.w_query)
    k = T.matmul(img_out, params.w_key)
    logits = T.mul(T.matmul(q, T.swapaxes(k, -1, -2)), 1.0 / params.temperature)
    if gamma is not None:
        gamma = np.asarray(gamma, dtype=logits.dtype)
        want = logits.shape[:-1] + (1,)
        if gamma.shape != want:
            raise ShapeError(f"noise shape {gamma.shape} does not match {want}")
        logits = T.add(logits, Tensor(gamma))
    if not np.isfinite(logits.data).all():
        bad = np.argwhere(~np.isfinite(logits.data))
        raise NumericsError(f"non-finite assignment logits at indices {bad[:8].tolist()}")
    return T.softmax(logits, axis=-2)


def hard_assign(soft):
    """Column-wise one-hot of the argmax over groups, straight-through.

    Forward value is exactly one-hot (ties break toward the lowest group
    index); the backward gradient is identical to the soft matrix's.
    """
    idx = np.argmax(soft.data, axis=-2)
    onehot = np.zeros_like(soft.data)
    np.put_along_axis(onehot, np.expand_dims(idx, -2), 1.0, axis=-2)
    return T.add(Tensor(onehot), T.sub(soft, T.stop_gradient(soft)))


def merge(hard, sem_out, img_out, params):
    """Per-group weighted mean of assigned value-projected image tokens,
    projected and added to the semantic token: mass-normalized so an empty
    group contributes exactly zero."""
    values = T.matmul(img_out, params.w_value)  # (…,M,C)
    summed = T.matmul(hard, values)  # (…,N,C)
    mass = T.tsum(hard, axis=-1, keepdims=True)  # (…,N,1)
    pooled = T.div(summed, T.add(mass, params.eps))
    return T.add(sem_out, T.matmul(pooled, params.w_out))


def group_forward(sem_out, img_out, params, mode, seed=0):
    """similarity -> hard_assign -> merge.

    Train mode enables Gumbel noise (per batch element, seeds derived as
    seed + element index); eval mode is noiseless and fully deterministic.
    Always emits exactly N group tokens.
    """
    if mode not in (MODE_TRAIN, MODE_EVAL):
        raise ValueError(f"unknown mode {mode!r}")
    gamma = None
    if mode == MODE_TRAIN:
        n = sem_out.shape[-2]
        if sem_out.ndim == 3:
            batch = sem_out.shape[0]
            gamma = np.stack(
                [sample_gumbel((n, 1), seed + b) for b in range(batch)], axis=0
            )
        else:
            gamma = sample_gumbel((n, 1), seed)
    soft = similarity(sem_out, img_out, params, gamma)
    return merge(hard_assign(soft), sem_out, img_out, params)


def assign_eval(sem_out, img_out, params):
    """Deterministic (noise-free) group id per image token, shape (…,M)."""
    with T.no_grad():
        soft = similarity(sem_out, img_out, params)
    return np.argmax(soft.data, axis=-2)


def write_assignment_pgm(path, group_ids, num_groups):
    """Plain-P2 PGM of the patch-grid assignment map (one gray per group)."""
    group_ids = np.asarray(group_ids, dtype=np.int64).reshape(-1)
    side = int(round(np.sqrt(group_ids.size)))
    if side * side != group_ids.size:
        raise ShapeError(f"assignment map length {group_ids.size} is not a perfect square")
    grid = group_ids.reshape(side, side)
    maxval = max(int(num_groups) - 1, 1)
    lines = [f"P2", f"{side} {side}", f"{maxval}"]
    lines.extend(" ".join(str(v) for v in row) for row in grid)
    Path(path).write_text("".join(line + "\n" for line in lines))
    return Path(path)
