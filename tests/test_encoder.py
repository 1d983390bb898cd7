"""Encoder: patch embedding oracles, isolation invariance (bitwise), and
agreement of the segment-wise layouts with masked joint attention."""

import weakref

import numpy as np
import pytest

from conftest import semantic_tokens
from semtok import tensor as T
from semtok.encoder import (
    MASK_FULL,
    MASK_ISOLATED,
    ConfigError,
    Encoder,
    EncoderConfig,
    TransformerBlock,
)
from semtok.gradcheck import check_gradients
from semtok.model import load_into
from semtok.tensor import Tensor
from semtok.tensor_io import load_checkpoint, save_checkpoint
from semtok.train import parameters_to_tensors


def small_config(**kwargs):
    defaults = dict(
        image_height=16,
        image_width=16,
        patch_size=4,
        embed_dim=8,
        num_layers=2,
        num_heads=2,
    )
    defaults.update(kwargs)
    return EncoderConfig(**defaults)


# -- config ---------------------------------------------------------------


def test_config_token_count_paper_scale():
    cfg = EncoderConfig(image_height=336, image_width=336, patch_size=14, embed_dim=64, num_heads=4)
    assert cfg.num_patches == 576


def test_config_rejects_indivisible_image():
    with pytest.raises(ConfigError):
        EncoderConfig(image_height=30, image_width=32, patch_size=8)


def test_config_rejects_bad_heads():
    with pytest.raises(ConfigError):
        EncoderConfig(embed_dim=10, num_heads=4)


# -- patch embedding --------------------------------------------------------


def test_patch_embed_single_patch_is_projection_plus_pos():
    cfg = EncoderConfig(image_height=4, image_width=4, patch_size=4, embed_dim=8, num_heads=2, num_layers=1)
    enc = Encoder(cfg, np.random.default_rng(0), dtype=np.float64)
    img = np.random.default_rng(1).random((4, 4, 3))
    out = enc.patch_embed(img).data
    want = img.reshape(-1) @ enc.patch_w.data + enc.patch_b.data + enc.pos_embed.data[0]
    assert out.shape == (1, 8)
    np.testing.assert_allclose(out[0], want, rtol=1e-12)


def test_patch_extraction_matches_hand_indexing():
    # 4x4 image, patch 2: row-major patches, each row (r,c,channel)-ordered
    cfg = EncoderConfig(image_height=4, image_width=4, patch_size=2, embed_dim=12, num_heads=2, num_layers=1)
    enc = Encoder(cfg, np.random.default_rng(0), dtype=np.float64)
    img = np.arange(4 * 4 * 3, dtype=np.float64).reshape(4, 4, 3)
    patches = enc.extract_patches(img)
    assert patches.shape == (4, 12)
    for pr in range(2):
        for pc in range(2):
            want = np.zeros(12)
            for r in range(2):
                for c in range(2):
                    for ch in range(3):
                        want[(r * 2 + c) * 3 + ch] = img[pr * 2 + r, pc * 2 + c, ch]
            np.testing.assert_array_equal(patches[pr * 2 + pc], want)


def test_patch_embed_identity_projection_returns_patches():
    cfg = EncoderConfig(image_height=4, image_width=4, patch_size=2, embed_dim=12, num_heads=2, num_layers=1)
    enc = Encoder(cfg, np.random.default_rng(0), dtype=np.float64)
    enc.patch_w.data = np.eye(12)
    enc.patch_b.data = np.zeros(12)
    enc.pos_embed.data = np.zeros((4, 12))
    img = np.random.default_rng(2).random((4, 4, 3))
    np.testing.assert_array_equal(enc.patch_embed(img).data, enc.extract_patches(img))


def test_patch_embed_batched_matches_single():
    cfg = small_config()
    enc = Encoder(cfg, np.random.default_rng(0))
    imgs = np.random.default_rng(3).random((5, 16, 16, 3)).astype(np.float32)
    batched = enc.patch_embed(imgs).data
    for i in range(5):
        np.testing.assert_array_equal(batched[i], enc.patch_embed(imgs[i]).data)


def test_patch_embed_rejects_wrong_size():
    enc = Encoder(small_config(), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        enc.patch_embed(np.zeros((8, 16, 3)))
    with pytest.raises(ConfigError):  # scenes are RGB; one channel is refused
        enc.patch_embed(np.zeros((16, 16, 1)))


# -- the masked joint-attention oracle's layout matrix ---------------------------


def layout_mask(m, n, mode):
    """Boolean (M+N)x(M+N) matrix over [image, semantic] tokens; True means
    the row token may attend to the column token. The isolated layout forbids
    exactly the image-row x semantic-column block."""
    allowed = np.ones((m + n, m + n), dtype=bool)
    if mode == MASK_ISOLATED:
        allowed[:m, m:] = False
    return allowed


def test_mask_m2_n1_isolated_rows():
    want = np.array([[True, True, False], [True, True, False], [True, True, True]])
    np.testing.assert_array_equal(layout_mask(2, 1, MASK_ISOLATED), want)


def test_mask_n0_all_true():
    np.testing.assert_array_equal(layout_mask(2, 0, MASK_ISOLATED), np.ones((2, 2), dtype=bool))


def test_mask_predicate_enumeration():
    # isolated: blocked iff row is an image token and column is semantic
    m, n = 3, 2
    mask = layout_mask(m, n, MASK_ISOLATED)
    blocked = 0
    for i in range(m + n):
        for j in range(m + n):
            want = not (i < m and j >= m)
            assert mask[i, j] == want
            blocked += not want
    assert blocked == m * n == 6
    assert mask.diagonal().all()


def test_mask_full_all_true():
    assert layout_mask(3, 2, MASK_FULL).all()


# -- encode: isolation invariance ------------------------------------------------


def encoder_pair(seed, n_sem, dtype=np.float32):
    """An encoder plus n_sem semantic tokens to attach to it."""
    cfg = small_config()
    enc = Encoder(cfg, np.random.default_rng(seed), dtype=dtype)
    sem = semantic_tokens(n_sem, cfg.embed_dim, np.random.default_rng(seed + 1000), dtype=dtype)
    return cfg, enc, sem


def test_isolated_img_out_bitwise_equals_plain():
    for seed in range(5):
        cfg, enc, sem = encoder_pair(seed, n_sem=3)
        img = np.random.default_rng(seed + 99).random((16, 16, 3)).astype(np.float32)
        tokens = enc.patch_embed(img)
        img_iso, sem_iso = enc.encode(tokens, sem, MASK_ISOLATED)
        img_plain, none_out = enc.encode(enc.patch_embed(img))
        assert none_out is None
        assert np.array_equal(img_iso.data, img_plain.data)  # bitwise
        assert sem_iso.shape == (3, cfg.embed_dim)


def test_full_mode_changes_img_out():
    cfg, enc, sem = encoder_pair(7, n_sem=3)
    img = np.random.default_rng(8).random((16, 16, 3)).astype(np.float32)
    tokens = enc.patch_embed(img)
    img_full, _ = enc.encode(tokens, sem, MASK_FULL)
    img_plain, _ = enc.encode(enc.patch_embed(img))
    assert np.abs(img_full.data - img_plain.data).max() > 0


def test_n0_full_equals_n0_isolated():
    cfg = small_config()
    enc = Encoder(cfg, np.random.default_rng(3))
    img = np.random.default_rng(4).random((16, 16, 3)).astype(np.float32)
    tokens = enc.patch_embed(img)
    out_iso, _ = enc.encode(tokens, None, MASK_ISOLATED)
    out_full, _ = enc.encode(tokens, None, MASK_FULL)
    assert np.array_equal(out_iso.data, out_full.data)


def test_semantic_permutation_equivariance_isolated():
    cfg, enc, sem = encoder_pair(11, n_sem=4)
    img = np.random.default_rng(12).random((16, 16, 3)).astype(np.float32)
    _, sem_out = enc.encode(enc.patch_embed(img), sem, MASK_ISOLATED)
    perm = np.array([2, 0, 3, 1])
    sem_p = Tensor(sem.data[perm])
    _, sem_out_p = enc.encode(enc.patch_embed(img), sem_p, MASK_ISOLATED)
    np.testing.assert_allclose(sem_out_p.data, sem_out.data[perm], rtol=0, atol=1e-5)


def test_isolated_img_out_has_zero_gradient_wrt_semantic_tokens():
    cfg, enc, sem = encoder_pair(13, n_sem=3, dtype=np.float64)
    img = np.random.default_rng(14).random((16, 16, 3))
    img_out, sem_out = enc.encode(enc.patch_embed(img), sem, MASK_ISOLATED)
    assert sem not in T.mul(img_out, img_out).sum().backward()  # exactly zero: no graph path at all


def test_gradients_flow_to_semantic_tokens_via_sem_out():
    cfg, enc, sem = encoder_pair(15, n_sem=3, dtype=np.float64)
    for p in enc.params.values():
        p.requires_grad = False  # stage 2 freezes the encoder; the semantic half differentiates x_sem only
    img = np.random.default_rng(16).random((16, 16, 3))
    _, sem_out = enc.encode(enc.patch_embed(img), sem, MASK_ISOLATED)
    grads = T.mul(sem_out, sem_out).sum().backward()
    assert sem in grads and np.abs(grads[sem]).max() > 0


def test_full_mode_gradients_reach_semantic_tokens_from_img_out():
    cfg, enc, sem = encoder_pair(17, n_sem=3, dtype=np.float64)
    img = np.random.default_rng(18).random((16, 16, 3))
    img_out, _ = enc.encode(enc.patch_embed(img), sem, MASK_FULL)
    grads = T.mul(img_out, img_out).sum().backward()
    assert sem in grads and np.abs(grads[sem]).max() > 0


# -- the one-node semantic half ----------------------------------------------------


def composed_isolated_sem(block, k_img, v_img, x_sem):
    """TransformerBlock.forward_isolated_sem as composed autodiff ops: the
    reference its one node must equal bit for bit."""
    h = T.layer_norm(x_sem, block.ln1_gain, block.ln1_bias)
    q, k, v = T.linear(h, block.wq, block.bq), T.linear(h, block.wk), T.linear(h, block.wv, block.bv)
    attn = T.multi_head_attention(q, T.concat([k_img, k], -2), T.concat([v_img, v], -2), block.num_heads)
    x = T.add(x_sem, T.linear(attn, block.wo, block.bo))
    h = T.layer_norm(x, block.ln2_gain, block.ln2_bias)
    return T.add(x, T.linear(T.gelu(T.linear(h, block.w1, block.b1)), block.w2, block.b2))


def frozen_blocks(count, dtype, rng, dim=16, heads=2):
    """Frozen blocks with weights well away from the near-uniform attention of the 0.02 init."""
    blocks = [TransformerBlock(dim, heads, rng, dtype=dtype) for _ in range(count)]
    for block in blocks:
        for p in block.params.values():
            p.data = (rng.standard_normal(p.shape) * 0.5).astype(dtype)
            p.requires_grad = False
    return blocks


@pytest.mark.parametrize("kv", ["cached", "live"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_node_semantic_half_equals_the_composed_ops_bitwise(dtype, kv):
    # two frozen blocks over a batch of 3 scenes, 6 image and 4 semantic
    # tokens, fed as encode feeds them: the semantic tokens broadcast over
    # the batch, and image keys/values stored as arrays ("cached") or
    # computed by the block's image half ("live")
    rng = np.random.default_rng(81)
    blocks = frozen_blocks(2, dtype, rng)
    x_img = Tensor(rng.standard_normal((3, 6, 16)).astype(dtype))
    stored = [[Tensor(rng.standard_normal((3, 6, 16)).astype(dtype)) for _ in "kv"] for _ in blocks]
    r = Tensor(rng.standard_normal((3, 4, 16)).astype(dtype))

    def run(half):
        sem = semantic_tokens(4, 16, np.random.default_rng(82), dtype=dtype)
        x_sem, x = T.broadcast_to(sem, (3, 4, 16)), x_img
        for block, (k, v) in zip(blocks, stored):
            if kv == "live":
                x, k, v = block._plain_with_kv(x)
            x_sem = half(block, k, v, x_sem)
        return x_sem, T.mul(x_sem, r).sum().backward()[sem]

    got, got_grad = run(TransformerBlock.forward_isolated_sem)
    want, want_grad = run(composed_isolated_sem)
    assert len(got._parents) == 1, "one node whose only parent is the block's input"
    assert got.data.dtype == want.data.dtype == dtype
    assert got.data.tobytes() == want.data.tobytes()
    assert got_grad.dtype == dtype and got_grad.tobytes() == want_grad.tobytes()


def test_one_node_semantic_half_gradient_matches_central_differences():
    rng = np.random.default_rng(83)
    (block,) = frozen_blocks(1, np.float64, rng)
    k, v = (Tensor(rng.standard_normal((2, 5, 16))) for _ in range(2))
    x_sem = Tensor(rng.standard_normal((2, 3, 16)), requires_grad=True)
    r = Tensor(rng.standard_normal((2, 3, 16)))
    report = check_gradients(lambda: T.mul(block.forward_isolated_sem(k, v, x_sem), r).sum(), {"x_sem": x_sem})
    assert report.passed, str(report)


def test_the_semantic_half_frees_its_image_keys_and_values_after_the_forward():
    # it attends over its own joined copy, so the slices a shard gathers from
    # the frozen store need not live on until backward; they get no gradient
    rng = np.random.default_rng(85)
    (block,) = frozen_blocks(1, np.float32, rng)
    k, v = (Tensor(rng.standard_normal((2, 5, 16)).astype(np.float32)) for _ in range(2))
    x_sem = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32), requires_grad=True)
    freed = weakref.ref(k.data), weakref.ref(v.data)
    out = block.forward_isolated_sem(k, v, x_sem)
    del k, v
    assert [ref() for ref in freed] == [None, None]
    assert set(out.sum().backward()) == {x_sem}


@pytest.mark.parametrize("trainable", ["attn.wq", "image keys"])
def test_one_node_semantic_half_refuses_a_gradient_it_does_not_compute(trainable):
    # it differentiates x_sem only: a block parameter or image keys that
    # require a gradient run forward, and backward refuses them by name
    rng = np.random.default_rng(84)
    (block,) = frozen_blocks(1, np.float32, rng)
    k, v = (Tensor(rng.standard_normal((2, 5, 16)).astype(np.float32)) for _ in range(2))
    x_sem = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32), requires_grad=True)
    (block.params[trainable] if trainable in block.params else k).requires_grad = True
    out = block.forward_isolated_sem(k, v, x_sem)
    with pytest.raises(ValueError, match=f"forward_isolated_sem computes no gradient for {trainable}:"):
        out.sum().backward()


# -- encode vs masked joint attention in plain numpy -------------------------------


def hand_ln(v, g, b):
    mu = v.mean(axis=-1, keepdims=True)
    var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
    return (v - mu) / np.sqrt(var + 1e-5) * g + b


def hand_block(x, blk, mask):
    """Direct per-row transformer block in plain numpy over one (S, C)
    sequence; row i attends to column j only where mask[i, j]."""

    def gelu(v):
        c = np.sqrt(2.0 / np.pi)
        return 0.5 * v * (1.0 + np.tanh(c * (v + 0.044715 * v**3)))

    h = hand_ln(x, blk.ln1_gain.data, blk.ln1_bias.data)
    q = h @ blk.wq.data + blk.bq.data
    k = h @ blk.wk.data
    v = h @ blk.wv.data + blk.bv.data
    s, c = x.shape
    nh = blk.num_heads
    dh = c // nh
    attn = np.zeros_like(x)
    for head in range(nh):
        qs, ks, vs = (m[:, head * dh : (head + 1) * dh] for m in (q, k, v))
        for i in range(s):
            scores = np.array(
                [qs[i] @ ks[j] / np.sqrt(dh) if mask[i, j] else -np.inf for j in range(s)]
            )
            e = np.exp(scores - scores[np.isfinite(scores)].max())
            e[~np.isfinite(scores)] = 0.0
            p = e / e.sum()
            attn[i, head * dh : (head + 1) * dh] = (p[:, None] * vs).sum(axis=0)
    x = x + attn @ blk.wo.data + blk.bo.data
    h2 = hand_ln(x, blk.ln2_gain.data, blk.ln2_bias.data)
    return x + gelu(h2 @ blk.w1.data + blk.b1.data) @ blk.w2.data + blk.b2.data


def assert_encode_matches_masked_attention(cfg, n, mode, images, seed):
    """encode() with n semantic tokens under layout `mode` equals joint
    attention over the whole [image, semantic] sequence restricted by the
    layout matrix, image by image, to 1e-10 in float64."""
    enc = Encoder(cfg, np.random.default_rng(seed), dtype=np.float64)
    m, c = cfg.num_patches, cfg.embed_dim
    sem = semantic_tokens(n, c, np.random.default_rng(seed + 1), dtype=np.float64)
    tokens = enc.patch_embed(images)
    img_out, sem_out = enc.encode(tokens, sem, mode)

    mask = layout_mask(m, n, mode)
    got = np.concatenate([img_out.data, sem_out.data], axis=-2).reshape(-1, m + n, c)
    for b, image_tokens in enumerate(tokens.data.reshape(-1, m, c)):
        x = np.concatenate([image_tokens, sem.data], axis=0)
        for blk in enc.blocks:
            x = hand_block(x, blk, mask)
        want = hand_ln(x, enc.final_gain.data, enc.final_bias.data)
        assert np.abs(got[b] - want).max() < 1e-10


@pytest.mark.parametrize("mode", [MASK_ISOLATED, MASK_FULL])
def test_one_layer_encode_matches_hand_formula(mode):
    # one layer, one head, 2 image tokens + 1 semantic token, one image
    cfg = EncoderConfig(
        image_height=4,
        image_width=2,
        patch_size=2,
        embed_dim=6,
        num_layers=1,
        num_heads=1,
    )
    assert_encode_matches_masked_attention(cfg, 1, mode, np.random.default_rng(23).random((4, 2, 3)), seed=21)


@pytest.mark.parametrize("mode", [MASK_ISOLATED, MASK_FULL])
def test_two_layer_batched_encode_matches_hand_formula(mode):
    # two layers, two heads, 4 image tokens + 2 semantic tokens, a batch of 2
    cfg = EncoderConfig(
        image_height=4,
        image_width=4,
        patch_size=2,
        embed_dim=8,
        num_layers=2,
        num_heads=2,
    )
    assert_encode_matches_masked_attention(cfg, 2, mode, np.random.default_rng(63).random((2, 4, 4, 3)), seed=61)


def test_encode_batched_matches_unbatched():
    cfg, enc, sem = encoder_pair(31, n_sem=2)
    imgs = np.random.default_rng(32).random((3, 16, 16, 3)).astype(np.float32)
    img_b, sem_b = enc.encode(enc.patch_embed(imgs), sem, MASK_ISOLATED)
    for i in range(3):
        img_1, sem_1 = enc.encode(enc.patch_embed(imgs[i]), sem, MASK_ISOLATED)
        np.testing.assert_allclose(img_b.data[i], img_1.data, atol=1e-6)
        np.testing.assert_allclose(sem_b.data[i], sem_1.data, atol=1e-6)


@pytest.mark.parametrize("n_sem", [0, 16])
def test_encode_rows_bitwise_independent_of_batch_size(n_sem):
    # the frozen cache encodes chunks of 64 scenes and training steps encode
    # batches of 32, so a scene's features must not depend on its batch: at
    # the default dims, rows [:n] of a 130-scene batch equal an n-scene batch
    cfg = EncoderConfig()
    enc = Encoder(cfg, np.random.default_rng(71))
    sem = semantic_tokens(n_sem, cfg.embed_dim, np.random.default_rng(72)) if n_sem else None
    images = np.random.default_rng(73).random((130, 64, 64, 3)).astype(np.float32)
    with T.no_grad():
        whole = enc.encode(enc.patch_embed(images), sem, MASK_ISOLATED)
        for n in (1, 6, 32, 64, 97):
            part = enc.encode(enc.patch_embed(images[:n]), sem, MASK_ISOLATED)
            for a, b in zip(whole, part):
                assert (a is None) == (b is None)
                assert a is None or a.data[:n].tobytes() == b.data.tobytes(), n


def test_forward_last_equals_the_last_row_of_forward_plain():
    # the task head's last block runs at the query position only
    rng = np.random.default_rng(44)
    block = TransformerBlock(8, 2, rng, dtype=np.float64)
    for p in block.params.values():  # well away from the near-uniform attention of the 0.02 init
        p.data = rng.standard_normal(p.shape) * 0.5
    x = Tensor(rng.standard_normal((3, 5, 8)), requires_grad=True)
    got = block.forward_last(x).data
    assert got.shape == (3, 8)
    assert np.abs(got - block.forward_plain(x).data[..., -1, :]).max() < 1e-12
    r = Tensor(rng.standard_normal((3, 8)))
    params = {"x": x, **block.params}
    report = check_gradients(lambda: T.mul(block.forward_last(x), r).sum(), params)
    assert report.passed, str(report)


def test_encode_rejects_unknown_mask_mode():
    cfg, enc, sem = encoder_pair(41, n_sem=2)
    img = np.random.default_rng(42).random((16, 16, 3)).astype(np.float32)
    with pytest.raises(ConfigError, match="'diagonal'"):
        enc.encode(enc.patch_embed(img), sem, "diagonal")


# -- persistence --------------------------------------------------------------------


def test_encoder_checkpoint_roundtrip(tmp_path):
    # the pipeline's checkpoint path: save_checkpoint + load_into
    cfg, enc, sem = encoder_pair(51, n_sem=2)
    save_checkpoint(tmp_path / "ck", parameters_to_tensors(enc.params))
    clone = Encoder(cfg, np.random.default_rng(52))
    tensors, _, _ = load_checkpoint(tmp_path / "ck")
    load_into(clone.params, tensors)
    img = np.random.default_rng(53).random((16, 16, 3)).astype(np.float32)
    a, _ = enc.encode(enc.patch_embed(img), sem)
    b, _ = clone.encode(clone.patch_embed(img), sem)
    assert np.array_equal(a.data, b.data)
