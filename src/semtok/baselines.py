"""Comparison token reducers sharing one dispatch surface, `reduce`: random
drop (one seed per scene), 2D adaptive average pooling, identity, and the
learned grouping block (Gumbel noise only when given a seed)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grouping as G
from . import tensor as T
from .tensor import Tensor

KIND_GROUPING = "grouping"
KIND_RANDOM_DROP = "random_drop"
KIND_AVG_POOL = "avg_pool"
KIND_IDENTITY = "identity"
REDUCER_KINDS = (KIND_GROUPING, KIND_RANDOM_DROP, KIND_AVG_POOL, KIND_IDENTITY)


@dataclass
class ReducerSpec:
    kind: str
    target_tokens: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in REDUCER_KINDS:
            raise ValueError(f"unknown reducer kind {self.kind!r}")
        if self.target_tokens < 1:
            raise ValueError(f"target_tokens must be >= 1, got {self.target_tokens}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def validate_for(self, source_tokens):
        if self.target_tokens > source_tokens:
            raise ValueError(f"target_tokens {self.target_tokens} exceeds source {source_tokens}")
        if self.kind == KIND_IDENTITY and self.target_tokens != source_tokens:
            raise ValueError(f"identity reducer needs target == source ({source_tokens})")
        if self.kind == KIND_AVG_POOL:
            for label, count in (("source", source_tokens), ("target", self.target_tokens)):
                side = int(round(np.sqrt(count)))
                if side * side != count:
                    raise ValueError(f"avg_pool needs square token counts; {label} {count} is not")


def drop_indices(source_tokens, keep, seed):
    """Uniform random subset without replacement, kept in original order."""
    if keep > source_tokens:
        raise ValueError(f"cannot keep {keep} of {source_tokens} tokens")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(source_tokens, size=keep, replace=False))


def random_drop_batch(img_out, keep, seeds):
    """Per-element subsets for a (B,M,C) batch; seeds has one entry per row."""
    batch, m, _ = img_out.shape
    if seeds is None or len(seeds) != batch:
        got = 0 if seeds is None else len(seeds)
        raise ValueError(f"random_drop needs one seed per scene: {batch} scenes, {got} seeds")
    rows = np.stack([drop_indices(m, keep, s) for s in seeds], axis=0)
    batch_idx = np.arange(batch)[:, None]
    return img_out[batch_idx, rows]


def pooling_matrix(source_tokens, target_tokens, dtype=np.float64):
    """Adaptive 2D average pooling as a (target x source) averaging matrix.

    Tokens are a row-major sqrt(M) x sqrt(M) grid. Output bin i on an axis
    covers source cells floor(i*s/t) .. ceil((i+1)*s/t); each output is the
    mean of its bin.
    """
    s = int(round(np.sqrt(source_tokens)))
    t = int(round(np.sqrt(target_tokens)))
    if s * s != source_tokens or t * t != target_tokens:
        raise ValueError(f"avg_pool needs square counts, got {source_tokens} -> {target_tokens}")
    i, cell = np.arange(t)[:, None], np.arange(s)
    bins = ((cell >= i * s // t) & (cell < -(-((i + 1) * s) // t))).astype(np.float64)  # (t x s) per axis
    mat = np.kron(bins, bins)  # row-major grid: bin (i, j) covers rows of bin i, columns of bin j
    return (mat / mat.sum(axis=1, keepdims=True)).astype(dtype)


def avg_pool(img_out, target_tokens):
    """Adaptive average pooling over the token grid down to target_tokens."""
    mat = Tensor(pooling_matrix(img_out.shape[-2], target_tokens, dtype=img_out.dtype))
    return T.matmul(mat, img_out)


def reduce(img_out, sem_out, spec, params=None, seed=None):
    """Dispatch to the reducer named by `spec`: (tokens, group ids (…,M) for
    grouping, else None). grouping needs sem_out and GroupingParams and draws
    Gumbel noise from `seed` if one is given; random_drop needs a (B,M,C)
    batch and one seed per scene in `seed`; the others ignore them."""
    spec.validate_for(img_out.shape[-2])
    if spec.kind == KIND_IDENTITY:
        return img_out, None
    if spec.kind == KIND_RANDOM_DROP:
        return random_drop_batch(img_out, spec.target_tokens, seed), None
    if spec.kind == KIND_AVG_POOL:
        return avg_pool(img_out, spec.target_tokens), None
    if sem_out is None or params is None:
        raise ValueError("grouping reducer needs semantic outputs and grouping params")
    if sem_out.shape[-2] != spec.target_tokens:
        raise ValueError(
            f"grouping emits {sem_out.shape[-2]} tokens but spec wants {spec.target_tokens}"
        )
    return G.group_forward(sem_out, img_out, params, seed=seed)
