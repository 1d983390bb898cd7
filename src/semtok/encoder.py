"""Patch embedding plus a small pre-norm ViT that can append learnable
semantic tokens after the linear projection.

Two attention layouts are supported. "full" runs ordinary self-attention over
the concatenated [image, semantic] sequence. "isolated" blocks image tokens
from attending to semantic tokens; it is evaluated segment-wise, so the image
half executes exactly the same numpy calls as an encoder with no semantic
tokens and its outputs are bitwise identical to that run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

MASK_ISOLATED = "isolated"
MASK_FULL = "full"
CHANNELS = 3  # scenes are RGB


class ConfigError(ValueError):
    """Encoder configuration violates its invariants."""


@dataclass
class EncoderConfig:
    image_height: int = 64
    image_width: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4

    def __post_init__(self):
        if self.image_height % self.patch_size or self.image_width % self.patch_size:
            raise ConfigError(
                f"image {self.image_height}x{self.image_width} not divisible by patch {self.patch_size}"
            )
        if self.embed_dim % self.num_heads:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by {self.num_heads} heads")

    @property
    def num_patches(self):
        return (self.image_height // self.patch_size) * (self.image_width // self.patch_size)

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size * CHANNELS


@dataclass
class SemanticTokens:
    """The learnable group-query embeddings appended to the patch sequence."""

    values: Tensor  # (N, embed_dim)

    @classmethod
    def create(cls, count, dim, rng, dtype=np.float32, std=0.02):
        data = (rng.standard_normal((count, dim)) * std).astype(dtype)
        return cls(values=Tensor(data, requires_grad=True))

    @property
    def count(self):
        return self.values.shape[0]


def _init_linear(rng, fan_in, fan_out, dtype, std=0.02):
    w = Tensor((rng.standard_normal((fan_in, fan_out)) * std).astype(dtype), requires_grad=True)
    b = Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True)
    return w, b


def _init_ln(dim, dtype):
    gain = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
    bias = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
    return gain, bias


def _batched(sem, batch_shape):
    """The semantic token values broadcast over the image tokens' batch dims."""
    x = sem.values
    return T.broadcast_to(x, tuple(batch_shape) + x.shape) if batch_shape else x


class TransformerBlock:
    """One pre-norm block: LN -> MHA -> residual, LN -> GELU MLP (4x) -> residual."""

    def __init__(self, dim, num_heads, rng, dtype=np.float32):
        self.num_heads = num_heads
        self.ln1_gain, self.ln1_bias = _init_ln(dim, dtype)
        self.wq, self.bq = _init_linear(rng, dim, dim, dtype)
        self.wk, self.bk = _init_linear(rng, dim, dim, dtype)
        self.wv, self.bv = _init_linear(rng, dim, dim, dtype)
        self.wo, self.bo = _init_linear(rng, dim, dim, dtype)
        self.ln2_gain, self.ln2_bias = _init_ln(dim, dtype)
        self.w1, self.b1 = _init_linear(rng, dim, 4 * dim, dtype)
        self.w2, self.b2 = _init_linear(rng, 4 * dim, dim, dtype)

    @property
    def params(self):
        return {
            "ln1.gain": self.ln1_gain,
            "ln1.bias": self.ln1_bias,
            "attn.wq": self.wq,
            "attn.bq": self.bq,
            "attn.wk": self.wk,
            "attn.bk": self.bk,
            "attn.wv": self.wv,
            "attn.bv": self.bv,
            "attn.wo": self.wo,
            "attn.bo": self.bo,
            "ln2.gain": self.ln2_gain,
            "ln2.bias": self.ln2_bias,
            "mlp.w1": self.w1,
            "mlp.b1": self.b1,
            "mlp.w2": self.w2,
            "mlp.b2": self.b2,
        }

    def _qkv(self, h):
        q = T.linear(h, self.wq, self.bq)
        k = T.linear(h, self.wk, self.bk)
        v = T.linear(h, self.wv, self.bv)
        return q, k, v

    def _mlp(self, x):
        h = T.layer_norm(x, self.ln2_gain, self.ln2_bias)
        return T.add(x, T.linear(T.gelu(T.linear(h, self.w1, self.b1)), self.w2, self.b2))

    def forward_plain(self, x):
        return self._plain_with_kv(x)[0]

    def _plain_with_kv(self, x):
        """forward_plain(x) plus the keys and values its attention read."""
        h = T.layer_norm(x, self.ln1_gain, self.ln1_bias)
        q, k, v = self._qkv(h)
        attn = T.multi_head_attention(q, k, v, self.num_heads)
        x = T.add(x, T.linear(attn, self.wo, self.bo))
        return self._mlp(x), k, v

    def forward_isolated(self, x_img, x_sem):
        """Segment-wise evaluation of the isolated layout: the image half is
        forward_plain(x_img) itself, since image queries only ever meet image
        keys/values, and the semantic half reads the keys/values it computed."""
        x_img, k_img, v_img = self._plain_with_kv(x_img)
        return x_img, self._sem_half(k_img, v_img, x_sem)

    def forward_isolated_sem(self, x_img_in, x_sem):
        """Semantic half of the isolated layout, given the image state entering
        this block (frozen, from a cache): recomputes the image keys/values
        exactly as forward_plain does."""
        h_img = T.layer_norm(x_img_in, self.ln1_gain, self.ln1_bias)
        return self._sem_half(T.linear(h_img, self.wk, self.bk), T.linear(h_img, self.wv, self.bv), x_sem)

    def _sem_half(self, k_img, v_img, x_sem):
        """Semantic queries read keys/values from both segments, which is all
        the isolated layout allows them."""
        h_sem = T.layer_norm(x_sem, self.ln1_gain, self.ln1_bias)
        q_sem, k_sem, v_sem = self._qkv(h_sem)
        k_all = T.concat([k_img, k_sem], axis=-2)
        v_all = T.concat([v_img, v_sem], axis=-2)
        attn_sem = T.multi_head_attention(q_sem, k_all, v_all, self.num_heads)
        x_sem = T.add(x_sem, T.linear(attn_sem, self.wo, self.bo))
        return self._mlp(x_sem)


class Encoder:
    """ViT-style encoder over non-overlapping patches.

    Image tokens get a learned positional embedding; semantic tokens do not
    (they are position-free group queries).
    """

    def __init__(self, config, rng=None, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = rng if rng is not None else np.random.default_rng(0)
        c = config.embed_dim
        self.patch_w, self.patch_b = _init_linear(rng, config.patch_dim, c, self.dtype)
        self.pos_embed = Tensor(
            (rng.standard_normal((config.num_patches, c)) * 0.02).astype(self.dtype),
            requires_grad=True,
        )
        self.blocks = [TransformerBlock(c, config.num_heads, rng, self.dtype) for _ in range(config.num_layers)]
        self.final_gain, self.final_bias = _init_ln(c, self.dtype)

    @property
    def params(self):
        out = {"patch_proj.weight": self.patch_w, "patch_proj.bias": self.patch_b, "pos_embed": self.pos_embed}
        for i, block in enumerate(self.blocks):
            for name, p in block.params.items():
                out[f"block{i}.{name}"] = p
        out["final_ln.gain"] = self.final_gain
        out["final_ln.bias"] = self.final_bias
        return out

    # -- patch embedding -------------------------------------------------

    def extract_patches(self, image):
        """Row-major PxP patch flattening: pixel order inside a patch is
        (row, col, channel)."""
        image = np.asarray(image)
        p = self.config.patch_size
        *lead, h, w, c = image.shape
        if h != self.config.image_height or w != self.config.image_width or c != CHANNELS:
            raise ConfigError(
                f"image shape {(h, w, c)} does not match config "
                f"{(self.config.image_height, self.config.image_width, CHANNELS)}"
            )
        gh, gw = h // p, w // p
        x = image.reshape(*lead, gh, p, gw, p, c)
        x = np.moveaxis(x, -3, -4)
        return np.ascontiguousarray(x.reshape(*lead, gh * gw, p * p * c))

    def patch_embed(self, image):
        """(…,H,W,3) pixels -> (…,M,C) tokens: flatten patches, project, add
        the per-position embedding."""
        patches = Tensor(self.extract_patches(image).astype(self.dtype, copy=False))
        return T.add(T.linear(patches, self.patch_w, self.patch_b), self.pos_embed)

    # -- transformer stack ------------------------------------------------

    def encode(self, img_tokens, sem=None, mask_mode=MASK_ISOLATED):
        """Run the block stack under the attention layout `mask_mode`
        ("isolated" or "full"). Returns (img_out, sem_out) where sem_out is
        None when no semantic tokens are attached.

        Both segments pass through the final layer norm (uniform treatment).
        """
        if mask_mode not in (MASK_ISOLATED, MASK_FULL):
            raise ConfigError(f"unknown mask_mode {mask_mode!r}")
        m = self.config.num_patches
        if img_tokens.shape[-2] != m or img_tokens.shape[-1] != self.config.embed_dim:
            raise ShapeError(f"img_tokens shape {img_tokens.shape} does not match (M={m}, C={self.config.embed_dim})")
        n = 0 if sem is None else sem.count
        if n and mask_mode == MASK_ISOLATED:
            x_img, x_sem = img_tokens, _batched(sem, img_tokens.shape[:-2])
            for block in self.blocks:
                x_img, x_sem = block.forward_isolated(x_img, x_sem)
            img_out = T.layer_norm(x_img, self.final_gain, self.final_bias)
            return img_out, T.layer_norm(x_sem, self.final_gain, self.final_bias)

        # no semantic tokens, or the full layout: every pair may attend
        x = T.concat([img_tokens, _batched(sem, img_tokens.shape[:-2])], axis=-2) if n else img_tokens
        for block in self.blocks:
            x = block.forward_plain(x)
        x = T.layer_norm(x, self.final_gain, self.final_bias)
        return (x[..., :m, :], x[..., m:, :]) if n else (x, None)

    def image_state_stack(self, img_tokens):
        """Per-layer image-token input states plus the final image output,
        computed without graph construction. Valid as a training-time cache
        only while the encoder is frozen: under the isolated layout the image
        path never depends on the semantic tokens."""
        states = []
        with T.no_grad():
            x = img_tokens
            for block in self.blocks:
                states.append(x.data)
                x = block.forward_plain(x)
            img_out = T.layer_norm(x, self.final_gain, self.final_bias)
        return states, img_out.data

    def encode_sem_cached(self, states, sem):
        """Run only the semantic half of the isolated layout against cached
        per-layer image states (numpy arrays, possibly batched)."""
        x_sem = _batched(sem, states[0].shape[:-2])
        for block, state in zip(self.blocks, states):
            x_sem = block.forward_isolated_sem(Tensor(state), x_sem)
        return T.layer_norm(x_sem, self.final_gain, self.final_bias)
