"""Token reducers: random drop (uniformity, order, per-scene seeds), adaptive
average pooling (block oracle), and the dispatch surface."""

import numpy as np
import pytest

from semtok.baselines import (
    KIND_AVG_POOL,
    KIND_GROUPING,
    KIND_IDENTITY,
    KIND_RANDOM_DROP,
    ReducerSpec,
    avg_pool,
    drop_indices,
    pooling_matrix,
    random_drop_batch,
    reduce,
)
from semtok.grouping import GroupingParams, group_forward
from semtok.tensor import Tensor


def tokens(rng, m, c=4):
    return Tensor(rng.standard_normal((m, c)))


# -- random drop -------------------------------------------------------------


def batch(rng, b, m, c=4):
    return Tensor(rng.standard_normal((b, m, c)))


def test_random_drop_keep_all_is_identity():
    rng = np.random.default_rng(0)
    x = batch(rng, 2, 8)
    out = random_drop_batch(x, 8, seeds=[3, 4])
    np.testing.assert_array_equal(out.data, x.data)


def test_random_drop_same_seed_same_subset():
    rng = np.random.default_rng(1)
    x = batch(rng, 1, 10)
    a = random_drop_batch(x, 4, seeds=[7]).data
    b = random_drop_batch(x, 4, seeds=[7]).data
    assert np.array_equal(a, b)


def test_random_drop_rows_are_ordered_subsequence():
    rng = np.random.default_rng(2)
    x = batch(rng, 1, 12)
    out = random_drop_batch(x, 5, seeds=[9]).data[0]
    # each output row appears in the input, in increasing position order
    positions = []
    for row in out:
        matches = np.where((x.data[0] == row).all(axis=1))[0]
        assert matches.size == 1
        positions.append(matches[0])
    assert positions == sorted(positions)


def test_random_drop_uniformity_monte_carlo():
    # M=8, keep 2: every index should appear with frequency 0.25 +/- 0.01
    m, keep, trials = 8, 2, 100_000
    counts = np.zeros(m)
    for seed in range(trials):
        counts[drop_indices(m, keep, seed)] += 1
    freq = counts / trials
    assert np.abs(freq - keep / m).max() < 0.01


def test_random_drop_too_many_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        random_drop_batch(batch(rng, 1, 4), 5, seeds=[0])
    with pytest.raises(ValueError):
        random_drop_batch(batch(rng, 2, 8), 4, seeds=[0])  # one seed per scene


def test_random_drop_batch_per_element_seeds():
    rng = np.random.default_rng(4)
    x = batch(rng, 3, 10)
    out = random_drop_batch(x, 4, seeds=[11, 12, 13]).data
    for b, seed in enumerate([11, 12, 13]):
        np.testing.assert_array_equal(out[b], x.data[b][drop_indices(10, 4, seed)])


def test_random_drop_without_seeds_names_the_reducer_and_scene_count():
    rng = np.random.default_rng(4)
    x = batch(rng, 3, 10)
    with pytest.raises(ValueError, match="random_drop needs one seed per scene: 3 scenes, 0 seeds"):
        reduce(x, None, ReducerSpec(KIND_RANDOM_DROP, 4))
    with pytest.raises(ValueError, match="random_drop needs one seed per scene: 3 scenes, 2 seeds"):
        random_drop_batch(x, 4, seeds=[11, 12])


# -- avg pool ----------------------------------------------------------------


def test_avg_pool_identity():
    rng = np.random.default_rng(5)
    x = tokens(rng, 16)
    np.testing.assert_allclose(avg_pool(x, 16).data, x.data, rtol=1e-12)


def test_avg_pool_single_bin_is_global_mean():
    rng = np.random.default_rng(6)
    x = tokens(rng, 4)
    out = avg_pool(x, 1).data
    np.testing.assert_allclose(out[0], x.data.mean(axis=0), rtol=1e-12)


def test_avg_pool_24x24_to_12x12_block_loop_oracle():
    rng = np.random.default_rng(7)
    s, t, c = 24, 12, 3
    x = Tensor(rng.standard_normal((s * s, c)))
    got = avg_pool(x, t * t).data
    grid = x.data.reshape(s, s, c)
    for i in range(t):
        for j in range(t):
            block = grid[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].reshape(-1, c)
            np.testing.assert_allclose(got[i * t + j], block.mean(axis=0), rtol=1e-12)


def loop_pooling_matrix(s, t, dtype):
    """Reference: fill each output bin's source cells with its weight, one
    grid row at a time."""
    mat = np.zeros((t * t, s * s), dtype=dtype)
    for i in range(t):
        r0, r1 = (i * s) // t, -(-((i + 1) * s) // t)
        for j in range(t):
            c0, c1 = (j * s) // t, -(-((j + 1) * s) // t)
            weight = 1.0 / ((r1 - r0) * (c1 - c0))
            for r in range(r0, r1):
                mat[i * t + j, r * s + c0 : r * s + c1] = weight
    return mat


def test_avg_pool_uneven_bins_follow_floor_ceil_rule():
    # 4x4 -> 3x3: bin i covers floor(i*4/3)..ceil((i+1)*4/3)
    mat = pooling_matrix(16, 9)
    row_bins = [(0, 2), (1, 3), (2, 4)]
    for i, (r0, r1) in enumerate(row_bins):
        for j, (c0, c1) in enumerate(row_bins):
            members = {r * 4 + c for r in range(r0, r1) for c in range(c0, c1)}
            nz = set(np.nonzero(mat[i * 3 + j])[0])
            assert nz == members
            np.testing.assert_allclose(mat[i * 3 + j, sorted(nz)], 1.0 / len(members))
    # every grid up to 16x16 in both dtypes, bit for bit; a float32 Kronecker
    # product of the two 1-D averaging matrices would differ, e.g. at (8, 3)
    for dtype in (np.float64, np.float32):
        for s in range(1, 17):
            for t in range(1, s + 1):
                got = pooling_matrix(s * s, t * t, dtype=dtype)
                want = loop_pooling_matrix(s, t, dtype)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (s, t, dtype)


def test_avg_pool_preserves_global_mean_when_even():
    rng = np.random.default_rng(8)
    x = tokens(rng, 64)
    out = avg_pool(x, 16).data
    assert abs(out.mean() - x.data.mean()) < 1e-6


def test_avg_pool_non_square_rejected():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        avg_pool(tokens(rng, 12), 4)
    with pytest.raises(ValueError):
        avg_pool(tokens(rng, 16), 8)


# -- reducer dispatch -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ReducerSpec("nope", 4)
    with pytest.raises(ValueError):
        ReducerSpec(KIND_IDENTITY, 0)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):  # numpy would refuse it at the first draw
        ReducerSpec(KIND_RANDOM_DROP, 4, seed=-1)
    ReducerSpec(KIND_IDENTITY, 8).validate_for(8)
    with pytest.raises(ValueError):
        ReducerSpec(KIND_IDENTITY, 4).validate_for(8)
    with pytest.raises(ValueError):
        ReducerSpec(KIND_AVG_POOL, 4).validate_for(12)


def test_reduce_identity_unchanged():
    rng = np.random.default_rng(10)
    x = tokens(rng, 6)
    out, ids = reduce(x, None, ReducerSpec(KIND_IDENTITY, 6))
    assert out is x and ids is None


def test_reduce_random_drop_matches_direct_call():
    rng = np.random.default_rng(11)
    x = batch(rng, 2, 9)
    # the seeds given to reduce are used as is; spec.seed is not a fallback
    spec = ReducerSpec(KIND_RANDOM_DROP, 3, seed=7)
    out, ids = reduce(x, None, spec, seed=[5, 6])
    np.testing.assert_array_equal(out.data, random_drop_batch(x, 3, [5, 6]).data)
    assert ids is None


def test_reduce_grouping_matches_group_forward():
    rng = np.random.default_rng(12)
    sem = Tensor(rng.standard_normal((4, 6)))
    img = Tensor(rng.standard_normal((16, 6)))
    params = GroupingParams.create(6, rng, dtype=np.float64)
    spec = ReducerSpec(KIND_GROUPING, 4, seed=5)
    for seed in (None, 5):  # noiseless, then with the noise the seed draws
        got, got_ids = reduce(img, sem, spec, params=params, seed=seed)
        want, want_ids = group_forward(sem, img, params, seed=seed)
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(got_ids, want_ids)


def test_reduce_all_kinds_emit_target_token_count():
    rng = np.random.default_rng(13)
    img = batch(rng, 2, 16, 6)
    sem = batch(rng, 2, 4, 6)
    params = GroupingParams.create(6, rng, dtype=np.float64)
    cases = [
        (ReducerSpec(KIND_IDENTITY, 16), 16),
        (ReducerSpec(KIND_RANDOM_DROP, 5, seed=1), 5),
        (ReducerSpec(KIND_AVG_POOL, 4), 4),
        (ReducerSpec(KIND_GROUPING, 4, seed=1), 4),
    ]
    for spec, want in cases:
        out, ids = reduce(img, sem, spec, params=params, seed=[1, 2] if spec.kind == KIND_RANDOM_DROP else 1)
        assert out.shape == (2, want, 6)
        assert (ids is None) == (spec.kind != KIND_GROUPING)


def test_reduce_grouping_requires_params():
    rng = np.random.default_rng(14)
    img = Tensor(rng.standard_normal((16, 6)))
    with pytest.raises(ValueError):
        reduce(img, None, ReducerSpec(KIND_GROUPING, 4))
