"""Grouping block: noise sampling, soft/hard assignment, merge oracle,
straight-through gradients, and whole-block gradient checks."""

import numpy as np
import pytest

from semtok import grouping as G
from semtok import tensor as T
from semtok.gradcheck import check_gradients
from semtok.grouping import (
    GroupingParams,
    assign_eval,
    group_forward,
    gumbel_from_uniform,
    hard_assign,
    merge,
    sample_gumbel,
    similarity,
    write_assignment_pgm,
)
from semtok.tensor import NumericsError, Tensor


def make_params(rng, dim, dtype=np.float64, **kwargs):
    return GroupingParams.create(dim, rng, dtype=dtype, **kwargs)


def rand_pair(rng, n, m, c, requires_grad=False, dtype=np.float64):
    sem = Tensor(rng.standard_normal((n, c)).astype(dtype), requires_grad=requires_grad)
    img = Tensor(rng.standard_normal((m, c)).astype(dtype), requires_grad=requires_grad)
    return sem, img


# -- gumbel noise -----------------------------------------------------------


def test_gumbel_closed_form_at_one_over_e():
    assert abs(gumbel_from_uniform(np.exp(-1.0))) < 1e-9


def test_gumbel_same_seed_bitwise_equal():
    a = sample_gumbel((5, 7), seed=123)
    b = sample_gumbel((5, 7), seed=123)
    assert a.shape == (5, 7) and np.array_equal(a, b)


def test_gumbel_monte_carlo_mean_is_euler_mascheroni():
    gamma = sample_gumbel((1_000_000,), seed=7)
    assert abs(gamma.mean() - 0.5772) < 0.01
    assert np.isfinite(gamma).all()


# -- similarity ----------------------------------------------------------------


def test_similarity_single_group_is_all_ones():
    rng = np.random.default_rng(0)
    sem, img = rand_pair(rng, 1, 6, 4)
    soft = similarity(sem, img, make_params(rng, 4))
    np.testing.assert_array_equal(soft.data, np.ones((1, 6)))


def test_similarity_equal_logits_uniform():
    rng = np.random.default_rng(1)
    n, m, c = 4, 5, 3
    params = make_params(rng, c)
    sem = Tensor(np.tile(rng.standard_normal(c), (n, 1)))  # identical rows
    img = Tensor(rng.standard_normal((m, c)))
    soft = similarity(sem, img, params)
    np.testing.assert_allclose(soft.data, np.full((n, m), 0.25), rtol=1e-12)


def test_similarity_direct_exponentiation_oracle():
    # identity projections, logits [[1,0],[0,1]]: columns follow e/(e+1) pattern
    eye = lambda: Tensor(np.eye(2))
    params = GroupingParams(eye(), eye(), eye(), eye(), temperature=1.0)
    sem = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    img = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    soft = similarity(sem, img, params).data
    e = np.exp(1.0)
    top, bottom = e / (e + 1.0), 1.0 / (e + 1.0)
    np.testing.assert_allclose(soft, [[top, bottom], [bottom, top]], rtol=1e-12)


def test_similarity_columns_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n, m, c = rng.integers(1, 9), rng.integers(1, 33), rng.integers(2, 17)
        sem, img = rand_pair(rng, n, m, c)
        soft = similarity(sem, img, make_params(rng, c), sample_gumbel((n, 1), int(rng.integers(1 << 30))))
        np.testing.assert_allclose(soft.data.sum(axis=-2), np.ones(m), atol=1e-6)


def test_similarity_per_group_noise_shifts_whole_rows():
    rng = np.random.default_rng(3)
    sem, img = rand_pair(rng, 3, 4, 5)
    params = make_params(rng, 5)
    gamma = np.array([[10.0], [0.0], [-10.0]])
    soft = similarity(sem, img, params, gamma).data
    assert (soft[0] > 0.99).all()  # +10 dominates every column


def test_similarity_rejects_nonfinite_logits():
    rng = np.random.default_rng(4)
    sem, img = rand_pair(rng, 2, 3, 4)
    sem.data[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
        similarity(sem, img, make_params(rng, 4))


def test_similarity_noise_shape_validated():
    rng = np.random.default_rng(5)
    sem, img = rand_pair(rng, 2, 3, 4)
    with pytest.raises(T.ShapeError):
        similarity(sem, img, make_params(rng, 4), np.zeros((3, 1)))
    with pytest.raises(T.ShapeError):
        similarity(sem, img, make_params(rng, 4), np.zeros((2, 3)))  # per-token noise is not supported


# -- hard assignment ---------------------------------------------------------------


def test_hard_assign_already_one_hot():
    soft = Tensor(np.array([[1.0], [0.0]]))
    np.testing.assert_array_equal(hard_assign(soft).data, [[1.0], [0.0]])


def test_hard_assign_argmax_per_column():
    soft = Tensor(np.array([[0.6, 0.2], [0.4, 0.8]]))
    np.testing.assert_array_equal(hard_assign(soft).data, [[1.0, 0.0], [0.0, 1.0]])


def test_hard_assign_tie_breaks_to_lowest_index():
    soft = Tensor(np.array([[0.5], [0.5]]))
    np.testing.assert_array_equal(hard_assign(soft).data, [[1.0], [0.0]])


def test_hard_columns_exactly_one_hot_property():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 20))
        logits = rng.standard_normal((n, m))
        soft = T.softmax(Tensor(logits), axis=-2)
        hard = hard_assign(soft).data
        assert ((hard == 0.0) | (hard == 1.0)).all()
        np.testing.assert_array_equal(hard.sum(axis=-2), np.ones(m))


def test_straight_through_gradient_linear_loss_matches_soft_fd():
    # For a loss linear in the assignment matrix, the straight-through
    # gradient through `hard` equals finite differences of the soft path.
    rng = np.random.default_rng(7)
    n, m, c = 3, 5, 4
    sem = Tensor(rng.standard_normal((n, c)))
    img = Tensor(rng.standard_normal((m, c)))
    params = make_params(rng, c)
    for p in params.params.values():
        p.requires_grad = True
    coeff = Tensor(rng.standard_normal((n, m)))

    def soft_path():
        return T.mul(similarity(sem, img, params), coeff).sum()

    def hard_path():
        return T.mul(hard_assign(similarity(sem, img, params)), coeff).sum()

    def grads_of(loss_fn):
        grads = loss_fn().backward()
        return {k: grads.get(p, np.zeros_like(p.data)) for k, p in params.params.items()}

    hard_grads = grads_of(hard_path)
    report = check_gradients(soft_path, params.params, step=1e-6, tol=1e-4)
    assert report.passed, str(report)
    soft_grads = grads_of(soft_path)
    for k in params.params:
        np.testing.assert_allclose(hard_grads[k], soft_grads[k], rtol=1e-12)


# -- merge -----------------------------------------------------------------------


def merge_bruteforce(hard, sem, img, params):
    """Explicit per-group loop-and-normalize in float64."""
    n, c = sem.shape
    values = img @ params.w_value.data
    out = np.zeros_like(sem)
    for i in range(n):
        acc = np.zeros(c)
        mass = 0.0
        for j in range(img.shape[0]):
            acc += hard[i, j] * values[j]
            mass += hard[i, j]
        out[i] = sem[i] + (acc / (mass + params.eps)) @ params.w_out.data
    return out


def test_merge_single_group_is_mean_of_tokens():
    rng = np.random.default_rng(8)
    m, c = 6, 4
    sem = Tensor(rng.standard_normal((1, c)))
    img = Tensor(rng.standard_normal((m, c)))
    eye = Tensor(np.eye(c))
    params = GroupingParams(eye, eye, eye, eye, eps=1e-6)
    hard = Tensor(np.ones((1, m)))
    out = merge(hard, sem, img, params).data
    want = sem.data[0] + img.data.sum(axis=0) / (m + 1e-6)
    np.testing.assert_allclose(out[0], want, rtol=1e-12)
    np.testing.assert_allclose(out[0], sem.data[0] + img.data.mean(axis=0), atol=1e-5)


def test_merge_empty_group_returns_semantic_token_exactly():
    rng = np.random.default_rng(9)
    sem = Tensor(rng.standard_normal((2, 4)))
    img = Tensor(rng.standard_normal((3, 4)))
    params = make_params(rng, 4)
    hard = Tensor(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    out = merge(hard, sem, img, params).data
    np.testing.assert_array_equal(out[1], sem.data[1])  # bitwise
    assert np.isfinite(out).all()


def test_merge_vs_loop_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n, m, c = 2, 3, 5
        sem, img = rand_pair(rng, n, m, c)
        params = make_params(rng, c)
        soft = similarity(sem, img, params)
        hard = hard_assign(soft)
        got = merge(hard, sem, img, params).data
        want = merge_bruteforce(hard.data, sem.data, img.data, params)
        assert np.abs(got - want).max() < 1e-10


# -- group_forward ------------------------------------------------------------------


def test_group_forward_eval_deterministic():
    rng = np.random.default_rng(11)
    sem, img = rand_pair(rng, 4, 9, 8)
    params = make_params(rng, 8)
    a = group_forward(sem, img, params)[0].data
    b = group_forward(sem, img, params)[0].data
    assert np.array_equal(a, b)


def test_group_forward_seed_draws_noise():
    # a seed alone switches the noise on: some seed hardens an image token to
    # another group than the noiseless pass does
    rng = np.random.default_rng(21)
    sem, img = rand_pair(rng, 4, 16, 6)
    params = make_params(rng, 6)
    _, plain = group_forward(sem, img, params)
    assert any(not np.array_equal(group_forward(sem, img, params, seed=s)[1], plain) for s in range(8))


def test_group_forward_train_seed_reproducible():
    rng = np.random.default_rng(12)
    sem, img = rand_pair(rng, 4, 9, 8)
    params = make_params(rng, 8)
    a = group_forward(sem, img, params, seed=99)[0].data
    b = group_forward(sem, img, params, seed=99)[0].data
    assert np.array_equal(a, b)
    # different seeds perturb the soft assignment (the merged value only moves
    # when an argmax flips, so compare the soft matrices)
    s99 = similarity(sem, img, params, sample_gumbel((4, 1), 99)).data
    s100 = similarity(sem, img, params, sample_gumbel((4, 1), 100)).data
    assert not np.array_equal(s99, s100)


def test_group_forward_eval_equals_manual_composition():
    rng = np.random.default_rng(13)
    sem, img = rand_pair(rng, 3, 7, 6)
    params = make_params(rng, 6)
    got = group_forward(sem, img, params)[0].data
    manual = merge(hard_assign(similarity(sem, img, params, None)), sem, img, params).data
    np.testing.assert_array_equal(got, manual)


def test_group_forward_emits_exactly_n_tokens():
    rng = np.random.default_rng(14)
    for n in (1, 2, 5):
        sem, img = rand_pair(rng, n, 12, 4)
        out, ids = group_forward(sem, img, make_params(rng, 4))
        assert out.shape == (n, 4) and ids.shape == (12,)


def test_group_forward_batched_matches_per_element():
    rng = np.random.default_rng(15)
    batch, n, m, c = 3, 4, 6, 5
    params = make_params(rng, c)
    sem = Tensor(rng.standard_normal((batch, n, c)))
    img = Tensor(rng.standard_normal((batch, m, c)))
    out, ids = group_forward(sem, img, params, seed=7)
    for b in range(batch):
        single, single_ids = group_forward(Tensor(sem.data[b]), Tensor(img.data[b]), params, seed=7 + b)
        np.testing.assert_allclose(out.data[b], single.data, rtol=1e-12)
        np.testing.assert_array_equal(ids[b], single_ids)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["N,C", "B,N,C", "A,B,N,C"])
def test_group_forward_train_noise_is_one_draw_per_flattened_element(lead, monkeypatch):
    rng = np.random.default_rng(20)
    n, m, c, seed = 4, 6, 5, 11
    params = make_params(rng, c)
    sem = Tensor(rng.standard_normal(lead + (n, c)))
    img = Tensor(rng.standard_normal(lead + (m, c)))
    seen = []

    def spy(sem_out, img_out, params, gamma=None):
        seen.append(gamma)
        return similarity(sem_out, img_out, params, gamma)

    monkeypatch.setattr(G, "similarity", spy)
    out, ids = group_forward(sem, img, params, seed=seed)
    draws = [sample_gumbel((n, 1), seed + i) for i in range(int(np.prod(lead)))]
    assert seen[0].tobytes() == np.stack(draws).reshape(lead + (n, 1)).tobytes()
    assert out.shape == lead + (n, c) and ids.shape == lead + (m,)


def test_temperature_to_zero_approaches_hard():
    rng = np.random.default_rng(16)
    sem, img = rand_pair(rng, 4, 10, 6)
    cold = make_params(np.random.default_rng(16), 6, temperature=1e-3)
    warm = make_params(np.random.default_rng(16), 6, temperature=1.0)
    soft_cold = similarity(sem, img, cold).data
    soft_warm = similarity(sem, img, warm).data
    assert soft_cold.max(axis=-2).min() > 1.0 - 1e-3
    assert soft_cold.max(axis=-2).min() > soft_warm.max(axis=-2).min()


def test_full_grouping_block_gradcheck():
    # 4 groups x 9 tokens x dim 8: block loss gradient vs central differences
    rng = np.random.default_rng(17)
    n, m, c = 4, 9, 8
    sem = Tensor(rng.standard_normal((n, c)), requires_grad=True)
    img = Tensor(rng.standard_normal((m, c)), requires_grad=True)
    params = make_params(rng, c)
    for p in params.params.values():
        p.requires_grad = True
    # soft-path loss keeps the whole block differentiable for the oracle
    coeff = Tensor(rng.standard_normal((n, c)))

    def loss():
        soft = similarity(sem, img, params)
        out = merge(soft, sem, img, params)
        return T.mul(out, coeff).sum()

    all_params = dict(params.params)
    all_params["sem"] = sem
    all_params["img"] = img
    report = check_gradients(loss, all_params, step=1e-6, tol=1e-4)
    assert report.passed, str(report)


# -- assignment export -----------------------------------------------------------------


def test_assign_eval_matches_similarity_argmax():
    rng = np.random.default_rng(18)
    sem, img = rand_pair(rng, 4, 16, 6)
    params = make_params(rng, 6)
    ids = assign_eval(sem, img, params)
    soft = similarity(sem, img, params).data
    np.testing.assert_array_equal(ids, soft.argmax(axis=-2))


def test_group_forward_eval_ids_equal_assign_eval():
    # the ids the eval pass hardened are the ones assign_eval computes apart,
    # for one scene and for a batch
    rng = np.random.default_rng(19)
    n, m, c = 4, 16, 6
    params = make_params(rng, c)
    for lead in ((), (3,)):
        sem = Tensor(rng.standard_normal(lead + (n, c)))
        img = Tensor(rng.standard_normal(lead + (m, c)))
        _, ids = group_forward(sem, img, params)
        assert ids.shape == lead + (m,)
        np.testing.assert_array_equal(ids, assign_eval(sem, img, params))


def test_write_assignment_pgm(tmp_path):
    ids = np.arange(16) % 4
    path = write_assignment_pgm(tmp_path / "map.pgm", ids, num_groups=4)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2" and lines[1] == "4 4" and lines[2] == "3"
    assert lines[3] == "0 1 2 3"
    assert len(lines) == 3 + 4


def test_write_assignment_pgm_bytes_equal_a_hand_written_map(tmp_path):
    ids = np.array([[0, 11], [3, 10]])
    path = write_assignment_pgm(tmp_path / "map.pgm", ids, num_groups=12)
    assert path.read_bytes() == b"P2\n2 2\n11\n0 11\n3 10\n"


def test_write_assignment_pgm_rejects_non_square():
    with pytest.raises(T.ShapeError):
        write_assignment_pgm("/tmp/x.pgm", np.zeros(15), 4)
