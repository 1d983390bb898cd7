"""Toy downstream components standing in for the language model: a two-layer
MLP connector, a class-bag head for stage-1 alignment, and a small
transformer head that answers query-conditioned questions so that task
gradients reach the grouping block."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoder import TransformerBlock, _init_linear, _init_ln
from .tensor import Tensor


class Connector:
    """Visual connector: projects encoder features into the head's space."""

    def __init__(self, dim, rng, dtype=np.float32):
        self.w1, self.b1 = _init_linear(rng, dim, dim, dtype)
        self.w2, self.b2 = _init_linear(rng, dim, dim, dtype)

    @property
    def params(self):
        return {"connector.w1": self.w1, "connector.b1": self.b1, "connector.w2": self.w2, "connector.b2": self.b2}

    def forward(self, tokens):
        return T.linear(T.gelu(T.linear(tokens, self.w1, self.b1)), self.w2, self.b2)


class BagHead:
    """Stage-1 alignment proxy: predict the multi-hot bag of classes present
    in the scene from mean-pooled connector outputs."""

    def __init__(self, dim, num_classes, rng, dtype=np.float32):
        self.w, self.b = _init_linear(rng, dim, num_classes, dtype)

    @property
    def params(self):
        return {"bag_head.w": self.w, "bag_head.b": self.b}

    def forward(self, tokens):
        pooled = T.tmean(tokens, axis=-2)
        return T.linear(pooled, self.w, self.b)


class TaskHead:
    """Two-block transformer over [visual tokens, query embedding]; the
    classification logits are read from the query position, so the last
    block runs its queries, output projection and MLP there only."""

    def __init__(self, dim, num_heads, query_vocab, num_classes, rng, num_blocks=2, dtype=np.float32):
        self.query_embed = Tensor(
            (rng.standard_normal((query_vocab, dim)) * 0.02).astype(dtype), requires_grad=True
        )
        self.blocks = [TransformerBlock(dim, num_heads, rng, dtype) for _ in range(num_blocks)]
        self.final_gain, self.final_bias = _init_ln(dim, dtype)
        self.w_cls, self.b_cls = _init_linear(rng, dim, num_classes, dtype)

    @property
    def params(self):
        out = {"head.query_embed": self.query_embed}
        for i, block in enumerate(self.blocks):
            for name, p in block.params.items():
                out[f"head.block{i}.{name}"] = p
        out.update(
            {
                "head.final_ln.gain": self.final_gain,
                "head.final_ln.bias": self.final_bias,
                "head.cls.w": self.w_cls,
                "head.cls.b": self.b_cls,
            }
        )
        return out

    def forward(self, visual_tokens, query_ids):
        """visual_tokens (B,N,C); query_ids (B,)."""
        ids = np.asarray(query_ids, dtype=np.int64)
        x = T.concat([visual_tokens, self.query_embed[ids[:, None]]], axis=-2)  # query as a (B,1,C) token
        for block in self.blocks[:-1]:
            x = block.forward_plain(x)
        query_state = self.blocks[-1].forward_last(x)
        query_state = T.layer_norm(query_state, self.final_gain, self.final_bias)
        return T.linear(query_state, self.w_cls, self.b_cls)


def load_into(params, tensors):
    """Copy checkpoint arrays into existing parameter tensors in place."""
    for name, p in params.items():
        if name not in tensors:
            raise KeyError(f"checkpoint is missing tensor {name!r}")
        src = tensors[name]
        if src.shape != p.data.shape:
            raise ValueError(f"tensor {name}: shape {src.shape} != expected {p.data.shape}")
        p.data = np.ascontiguousarray(src.astype(p.data.dtype, copy=False))
