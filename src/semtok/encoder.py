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


def _init_normal(rng, shape, dtype, std=0.02):
    """A trainable tensor drawn from N(0, std²), or zeros with no draw when
    rng is None (a checkpoint overwrites it)."""
    data = np.zeros(shape, dtype) if rng is None else (rng.standard_normal(shape) * std).astype(dtype)
    return Tensor(data, requires_grad=True)


def _init_linear(rng, fan_in, fan_out, dtype, std=0.02):
    bias = Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True)
    return _init_normal(rng, (fan_in, fan_out), dtype, std), bias


def _init_ln(dim, dtype):
    gain = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
    bias = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
    return gain, bias


def _batched(sem, batch_shape):
    """The (N, C) semantic tokens broadcast over the image tokens' batch dims."""
    return T.broadcast_to(sem, tuple(batch_shape) + sem.shape) if batch_shape else sem


class TransformerBlock:
    """One pre-norm block: LN -> MHA -> residual, LN -> GELU MLP (4x) -> residual."""

    def __init__(self, dim, num_heads, rng, dtype=np.float32):
        self.num_heads = num_heads
        self.ln1_gain, self.ln1_bias = _init_ln(dim, dtype)
        self.wq, self.bq = _init_linear(rng, dim, dim, dtype)
        self.wk = _init_normal(rng, (dim, dim), dtype)  # no bias: the softmax cancels q·b, alike for all keys
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
        k = T.linear(h, self.wk)
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

    def forward_last(self, x):
        """forward_plain(x)[..., -1, :], computed where it is read: every
        position gives keys and values, but only the last one queries them
        and passes through the output projection and the MLP."""
        h = T.layer_norm(x, self.ln1_gain, self.ln1_bias)
        q = T.linear(h[..., -1:, :], self.wq, self.bq)
        k = T.linear(h, self.wk)
        v = T.linear(h, self.wv, self.bv)
        attn = T.multi_head_attention(q, k, v, self.num_heads)
        x = T.add(x[..., -1:, :], T.linear(attn, self.wo, self.bo))
        return self._mlp(x)[..., 0, :]

    def forward_isolated(self, x_img, x_sem):
        """Segment-wise evaluation of the isolated layout: the image half is
        forward_plain(x_img) itself, since image queries only ever meet image
        keys/values, and the semantic half reads the keys/values it computed."""
        x_img, k_img, v_img = self._plain_with_kv(x_img)
        return x_img, self.forward_isolated_sem(k_img, v_img, x_sem)

    def forward_isolated_sem(self, k_img, v_img, x_sem):
        """Semantic half of the isolated layout: semantic queries read the
        image keys/values (live, or frozen from a cache) and their own, which
        is all the isolated layout allows them.

        One graph node for the whole block, whose backward hands x_sem its
        gradient and nothing else: stage 2 freezes the encoder, so neither
        the block's weights nor the image keys/values need one. Forward and
        backward run the array kernels of T.layer_norm, T.linear,
        T.multi_head_attention and T.gelu in the order those ops would, so
        the output and x_sem's gradient are their bits. A backward that
        reaches this node while a block parameter or the image keys/values
        require a gradient is refused by name; a trainable block still runs
        forward.
        """
        refused = {name: p for name, p in self.params.items() if p.requires_grad}
        refused |= {name: t for name, t in (("image keys", k_img), ("image values", v_img)) if t.requires_grad}
        x = x_sem.data
        h, normed1, inv1 = T._layer_norm_arrays(x, self.ln1_gain.data, self.ln1_bias.data)
        q = T._linear_arrays(h, self.wq.data, self.bq.data)
        k = T._linear_arrays(h, self.wk.data)
        v = T._linear_arrays(h, self.wv.data, self.bv.data)
        attn, saved = T._attention_arrays(q, [k_img.data, k], [v_img.data, v], self.num_heads)
        x1 = T._add_arrays(x, T._linear_arrays(attn, self.wo.data, self.bo.data))
        h2, normed2, inv2 = T._layer_norm_arrays(x1, self.ln2_gain.data, self.ln2_bias.data)
        u = T._linear_arrays(h2, self.w1.data, self.b1.data)
        act, t = T._gelu_arrays(u)
        out = T._add_arrays(x1, T._linear_arrays(act, self.w2.data, self.b2.data))
        sem_cols = slice(k_img.shape[-2], None)

        def backward(g):
            if refused:
                raise ValueError(
                    f"forward_isolated_sem computes no gradient for {next(iter(refused))}: "
                    "the semantic half runs frozen blocks only"
                )
            # out = x1 + mlp(x1): x1's gradient is g plus the MLP path's
            d = T._linear_input_grad(g, self.w2.data)
            d = T._linear_input_grad(T._gelu_input_grad(d, u, t), self.w1.data)
            d = T._layer_norm_input_grad(d, self.ln2_gain.data, normed2, inv2)
            d += g
            # x1 = x_sem + attention(ln1(x_sem)) @ wo + bo: the q, k and v
            # paths add into ln1's gradient in the order the sweep runs them
            dq, (dk,), (dv,) = T._attention_input_grads(
                T._linear_input_grad(d, self.wo.data), saved, True, [sem_cols], [sem_cols]
            )
            dh = T._linear_input_grad(dq, self.wq.data)
            dh += T._linear_input_grad(dk, self.wk.data)
            dh += T._linear_input_grad(dv, self.wv.data)
            dx = T._layer_norm_input_grad(dh, self.ln1_gain.data, normed1, inv1)
            dx += d
            x_sem._accumulate(dx, owned=True)

        return T._make(out, (x_sem, *refused.values()), backward, "forward_isolated_sem")


class Encoder:
    """ViT-style encoder over non-overlapping patches.

    Image tokens get a learned positional embedding; semantic tokens do not
    (they are position-free group queries). With rng None nothing is drawn:
    the weights start at zero for load_into to fill.
    """

    def __init__(self, config, rng=None, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        c = config.embed_dim
        self.patch_w, self.patch_b = _init_linear(rng, config.patch_dim, c, self.dtype)
        self.pos_embed = _init_normal(rng, (config.num_patches, c), self.dtype)
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
        ("isolated" or "full") with the (N, C) semantic tokens `sem`, if
        any. Returns (img_out, sem_out); sem_out is None without them.

        Both segments pass through the final layer norm (uniform treatment).
        """
        if mask_mode not in (MASK_ISOLATED, MASK_FULL):
            raise ConfigError(f"unknown mask_mode {mask_mode!r}")
        m = self.config.num_patches
        if img_tokens.shape[-2] != m or img_tokens.shape[-1] != self.config.embed_dim:
            raise ShapeError(f"img_tokens shape {img_tokens.shape} does not match (M={m}, C={self.config.embed_dim})")
        n = 0 if sem is None else sem.shape[0]
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
        """Per-layer (keys, values) of the image tokens plus the final image
        output, as arrays computed without graph construction. Valid as a
        training-time cache only while the encoder is frozen: under the
        isolated layout the image path never depends on the semantic tokens."""
        kv = []
        with T.no_grad():
            x = img_tokens
            for block in self.blocks:
                x, k, v = block._plain_with_kv(x)
                kv.append((k.data, v.data))
            img_out = T.layer_norm(x, self.final_gain, self.final_bias)
        return kv, img_out.data

    def encode_sem_cached(self, kv, sem):
        """Run only the semantic half of the isolated layout against cached
        per-layer image (keys, values) arrays, possibly batched."""
        x_sem = _batched(sem, kv[0][0].shape[:-2])
        for block, (k, v) in zip(self.blocks, kv):
            x_sem = block.forward_isolated_sem(Tensor(k), Tensor(v), x_sem)
        return T.layer_norm(x_sem, self.final_gain, self.final_bias)
