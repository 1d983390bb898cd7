"""Grouping block: Gumbel-softmax assignment of image tokens to semantic
tokens, straight-through hardening, and per-group feature merging.

The soft assignment is a softmax over groups for every image token; the hard
assignment keeps the one-hot argmax value in the forward pass while passing
the soft gradient straight through. Merged group features are normalized by
assignment mass, so an empty group returns its semantic token unchanged.
Gumbel noise is drawn only from a given seed, as a training step passes one;
without a seed the assignment is the noiseless argmax used at inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

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
    T.assert_finite(logits.data, "assignment logits")
    return T.softmax(logits, axis=-2)


def hard_assign(soft):
    """Column-wise one-hot of the argmax over groups, straight-through.

    Forward value is exactly one-hot (ties break toward the lowest group
    index); its backward hands the gradient to the soft matrix unchanged.
    """
    idx = np.argmax(soft.data, axis=-2)
    onehot = np.zeros_like(soft.data)
    np.put_along_axis(onehot, np.expand_dims(idx, -2), 1.0, axis=-2)
    return T.straight_through(onehot, soft)


def merge(hard, sem_out, img_out, params):
    """Per-group weighted mean of assigned value-projected image tokens,
    projected and added to the semantic token: mass-normalized so an empty
    group contributes exactly zero."""
    values = T.matmul(img_out, params.w_value)  # (…,M,C)
    summed = T.matmul(hard, values)  # (…,N,C)
    mass = T.tsum(hard, axis=-1, keepdims=True)  # (…,N,1)
    pooled = T.div(summed, T.add(mass, params.eps))
    return T.add(sem_out, T.matmul(pooled, params.w_out))


def group_forward(sem_out, img_out, params, seed=None):
    """similarity -> hard_assign -> merge: (N group tokens, the group id
    (…,M) each image token was hardened to).

    A seed adds Gumbel noise, drawn per element of the flattened batch dims
    with seed + element index; without one the pass is noiseless and fully
    deterministic, and its ids equal assign_eval's.
    """
    gamma = None
    if seed is not None:
        lead, n = sem_out.shape[:-2], sem_out.shape[-2]
        draws = [sample_gumbel((n, 1), seed + i) for i in range(math.prod(lead))]
        gamma = np.stack(draws).reshape(*lead, n, 1)
    hard = hard_assign(similarity(sem_out, img_out, params, gamma))
    return merge(hard, sem_out, img_out, params), np.argmax(hard.data, axis=-2)


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
    maxval = max(int(num_groups) - 1, 1)
    row = " ".join(["%d"] * side) + "\n"
    body = (row * side) % tuple(group_ids.tolist())  # the whole grid in one format
    Path(path).write_text(f"P2\n{side} {side}\n{maxval}\n{body}")
    return Path(path)
