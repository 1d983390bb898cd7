"""Tensor core: forward oracles, gradient checks against central
differences, and determinism contracts."""

import ctypes
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from semtok import tensor as T
from semtok.gradcheck import check_gradients
from semtok.tensor import NumericsError, ShapeError, Tensor


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, *shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


# -- matmul ------------------------------------------------------------------


def matmul_bruteforce(a, b):
    p, q = a.shape
    q2, r = b.shape
    out = np.zeros((p, r), dtype=a.dtype)
    for i in range(p):
        for j in range(r):
            acc = 0.0
            for k in range(q):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((3, 5))
    out = T.matmul(t64(np.eye(3)), t64(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_forced_arithmetic():
    out = T.matmul(t64([[1.0, 2.0], [3.0, 4.0]]), t64([[0.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_vs_triple_loop():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    got = T.matmul(t64(a), t64(b)).data
    want = matmul_bruteforce(a, b)
    assert np.abs(got - want).max() < 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5, 7))
    b = rng.standard_normal((7, 3))
    got = T.matmul(t64(a), t64(b)).data
    for i in range(4):
        np.testing.assert_allclose(got[i], a[i] @ b, rtol=1e-12)


# -- softmax -----------------------------------------------------------------


def test_softmax_equal_logits():
    out = T.softmax(t64(np.zeros(7)), axis=-1)
    np.testing.assert_allclose(out.data, np.full(7, 1.0 / 7.0), rtol=1e-15)


def test_softmax_closed_form():
    out = T.softmax(t64([0.0, np.log(3.0)]), axis=-1)
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_vs_unstabilized_formula():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(31) * 3.0
    got = T.softmax(t64(x), axis=-1).data
    direct = np.exp(x) / np.exp(x).sum()
    rel = np.abs(got - direct) / np.abs(direct)
    assert rel.max() < 1e-12


def test_softmax_sums_to_one_property():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
        axis = int(rng.integers(-ndim, ndim))
        x = rng.standard_normal(shape) * rng.uniform(0.1, 50.0)
        out = T.softmax(t64(x), axis=axis)
        sums = out.data.sum(axis=axis)
        assert np.abs(sums - 1.0).max() < 1e-6


def test_softmax_axis_out_of_range():
    with pytest.raises(ShapeError):
        T.softmax(t64(np.zeros((2, 3))), axis=2)


# -- straight_through ----------------------------------------------------------


def test_straight_through_forwards_value_and_hands_the_gradient_over_bitwise():
    rng = np.random.default_rng(6)
    a = _f32(rng, 3, 5)
    value = (rng.random((3, 5)) > 0.5).astype(np.float64)  # cast to a's float32
    w = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
    out = T.straight_through(value, a)
    assert out.data.dtype == np.float32 and out.data.tobytes() == value.astype(np.float32).tobytes()
    grads = T.mul(out, w).sum().backward()
    assert grads[a].tobytes() == w.data.tobytes()  # d(out*w)/d(out) = w, handed to `a` unchanged
    with pytest.raises(ShapeError):
        T.straight_through(np.zeros((5, 3)), a)


# -- elementwise/broadcast gradients ------------------------------------------


def test_broadcast_add_gradient_shapes():
    rng = np.random.default_rng(10)
    a = rand64(rng, 4, 3, requires_grad=True)
    b = rand64(rng, 3, requires_grad=True)
    grads = T.add(a, b).sum().backward()
    np.testing.assert_array_equal(grads[a], np.ones((4, 3)))
    np.testing.assert_array_equal(grads[b], np.full(3, 4.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients_match_central_differences(seed):
    rng = np.random.default_rng(100 + seed)
    a = rand64(rng, 3, 4, requires_grad=True)
    b = rand64(rng, 3, 4, requires_grad=True)
    w = rand64(rng, 4, 5, requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
    bias = rand64(rng, 4, requires_grad=True)
    x3 = rand64(rng, 2, 3, 4, requires_grad=True)
    k5 = rand64(rng, 2, 5, 4, requires_grad=True)
    v5 = rand64(rng, 2, 5, 4, requires_grad=True)
    lin_bias = rand64(rng, 5, requires_grad=True)
    r2, r3, r_attn = rand64(rng, 3, 5), rand64(rng, 2, 3, 5), rand64(rng, 2, 3, 4)
    k2, v2 = rand64(rng, 2, 2, 4, requires_grad=True), rand64(rng, 2, 2, 4, requires_grad=True)
    k_const, v_const = rand64(rng, 2, 3, 4), rand64(rng, 2, 3, 4)

    cases = {
        "add_mul": lambda: T.mul(T.add(a, b), b).sum(),
        "div": lambda: T.div(a, T.add(T.mul(b, b), 1.0)).sum(),
        "matmul": lambda: T.matmul(a, w).sum(),
        "linear_2d": lambda: T.mul(T.linear(a, w), r2).sum(),
        "linear_2d_bias": lambda: T.mul(T.linear(a, w, lin_bias), r2).sum(),
        "linear_3d": lambda: T.mul(T.linear(x3, w), r3).sum(),
        "linear_3d_bias": lambda: T.mul(T.linear(x3, w, lin_bias), r3).sum(),
        # the semantic half's shape: S_q = 3 queries read S_k = 5 keys/values
        "attention_sq_ne_sk": lambda: T.mul(T.multi_head_attention(x3, k5, v5, 2), r_attn).sum(),
        # key/value segments: a constant one between two that need gradients
        "attention_segments": lambda: T.mul(
            T.multi_head_attention(x3, [k5, k_const, k2], [v5, v_const, v2], 2), r_attn
        ).sum(),
        "gelu": lambda: T.gelu(a).sum(),
        "layer_norm": lambda: T.mul(T.layer_norm(a, gain, bias), b).sum(),
        "softmax": lambda: T.mul(T.softmax(a, axis=-1), b).sum(),
        "mean": lambda: T.tmean(T.mul(a, a), axis=0).sum(),
        "take": lambda: a[1:, ::2].sum(),
        "concat": lambda: T.mul(T.concat([a, b], axis=1), 0.5).sum(),
    }
    params = {"a": a, "b": b, "w": w, "gain": gain, "bias": bias, "x3": x3, "k5": k5, "v5": v5, "lin_bias": lin_bias}
    params |= {"k2": k2, "v2": v2}
    for name, f in cases.items():
        report = check_gradients(f, params, step=1e-5, tol=1e-4)
        assert report.passed, f"{name}: {report}"


def test_cross_entropy_gradient_and_value():
    rng = np.random.default_rng(11)
    logits = rand64(rng, 4, 5, requires_grad=True)
    targets = rng.integers(0, 5, size=4)

    def loss():
        return T.cross_entropy(logits, targets)

    # value oracle: direct -log softmax picked
    probs = np.exp(logits.data) / np.exp(logits.data).sum(axis=-1, keepdims=True)
    want = -np.log(probs[np.arange(4), targets]).mean()
    assert abs(loss().item() - want) < 1e-12
    report = check_gradients(loss, {"logits": logits}, step=1e-5, tol=1e-4)
    assert report.passed, str(report)


def test_sigmoid_bce_gradient_and_value():
    rng = np.random.default_rng(12)
    logits = rand64(rng, 3, 4, requires_grad=True)
    targets = (rng.random((3, 4)) < 0.5).astype(np.float64)

    def loss():
        return T.sigmoid_bce(logits, targets)

    p = 1.0 / (1.0 + np.exp(-logits.data))
    want = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
    assert abs(loss().item() - want) < 1e-12
    report = check_gradients(loss, {"logits": logits}, step=1e-5, tol=1e-4)
    assert report.passed, str(report)


# -- attention ------------------------------------------------------------------


def attention_bruteforce(q, k, v, num_heads, mask=None):
    """Per-row direct formula, one head at a time."""
    sq, c = q.shape
    sk = k.shape[0]
    dh = c // num_heads
    out = np.zeros((sq, c), dtype=q.dtype)
    for h in range(num_heads):
        qh = q[:, h * dh : (h + 1) * dh]
        kh = k[:, h * dh : (h + 1) * dh]
        vh = v[:, h * dh : (h + 1) * dh]
        for i in range(sq):
            scores = np.array([qh[i] @ kh[j] / np.sqrt(dh) for j in range(sk)])
            if mask is not None:
                scores = np.where(mask[i], scores, -np.inf)
            e = np.exp(scores - scores[np.isfinite(scores)].max())
            e[~np.isfinite(scores)] = 0.0
            p = e / e.sum()
            out[i, h * dh : (h + 1) * dh] = sum(p[j] * vh[j] for j in range(sk))
    return out


@pytest.mark.parametrize("num_heads,with_mask", [(1, False), (2, False), (2, True)])
def test_attention_vs_bruteforce(num_heads, with_mask):
    rng = np.random.default_rng(13)
    q = rand64(rng, 5, 8)
    k = rand64(rng, 7, 8)
    v = rand64(rng, 7, 8)
    mask = None
    if with_mask:
        # isolated-style layout evaluated segment-wise: the first 3 queries
        # see only the first 4 keys, the last 2 queries see every key
        mask = np.ones((5, 7), dtype=bool)
        mask[:3, 4:] = False
        head = T.multi_head_attention(q[:3], k[:4], v[:4], num_heads)
        tail = T.multi_head_attention(q[3:], k, v, num_heads)
        got = T.concat([head, tail], axis=0).data
    else:
        got = T.multi_head_attention(q, k, v, num_heads).data
    want = attention_bruteforce(q.data, k.data, v.data, num_heads, mask)
    assert np.abs(got - want).max() < 1e-12


def test_attention_gradients_with_mask():
    # an isolated-style mask evaluated segment-wise: the first 2 queries see
    # keys 0-2 only, the last query sees all 5, so keys/values feed both calls
    rng = np.random.default_rng(16)
    q = rand64(rng, 3, 4, requires_grad=True)
    k = rand64(rng, 5, 4, requires_grad=True)
    v = rand64(rng, 5, 4, requires_grad=True)
    c = rng.standard_normal((3, 4))

    def loss():
        head = T.multi_head_attention(q[:2], k[:3], v[:3], 2)
        tail = T.multi_head_attention(q[2:], k, v, 2)
        return T.mul(T.concat([head, tail], axis=0), Tensor(c)).sum()

    report = check_gradients(loss, {"q": q, "k": k, "v": v}, step=1e-5, tol=1e-4)
    assert report.passed, str(report)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segmented_attention_equals_attention_over_concatenated_keys_bitwise(dtype):
    # the semantic half's layout: queries read an image segment and their own
    rng = np.random.default_rng(31)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    q, k_img, v_img, k_sem, v_sem = leaf(3, 4, 8), leaf(3, 16, 8), leaf(3, 16, 8), leaf(3, 4, 8), leaf(3, 4, 8)
    r = Tensor(rng.standard_normal((3, 4, 8)).astype(dtype))
    segmented = T.multi_head_attention(q, [k_img, k_sem], [v_img, v_sem], 2)
    joined = T.multi_head_attention(q, T.concat([k_img, k_sem], -2), T.concat([v_img, v_sem], -2), 2)
    assert segmented.data.dtype == dtype and segmented.data.tobytes() == joined.data.tobytes()
    got, want = T.mul(segmented, r).sum().backward(), T.mul(joined, r).sum().backward()
    for t in (q, k_img, v_img, k_sem, v_sem):
        assert got[t].dtype == dtype and got[t].tobytes() == want[t].tobytes()


def test_a_constant_attention_segment_gets_no_gradient_and_is_freed_after_the_forward():
    rng = np.random.default_rng(32)
    q, k, v = rand64(rng, 2, 3, 4, requires_grad=True), rand64(rng, 2, 2, 4, requires_grad=True), rand64(rng, 2, 2, 4)
    k_const, v_const = rand64(rng, 2, 5, 4), rand64(rng, 2, 5, 4)
    freed = weakref.ref(k_const.data), weakref.ref(v_const.data)
    out = T.multi_head_attention(q, [k_const, k], [v_const, v], 2)
    assert out._parents == (q, k)
    del k_const, v_const
    assert [ref() for ref in freed] == [None, None]
    assert set(out.sum().backward()) == {q, k}


def test_attention_segments_must_pair_up_by_shape():
    rng = np.random.default_rng(33)
    q, k = rand64(rng, 2, 3, 4), rand64(rng, 2, 5, 4)
    with pytest.raises(ShapeError, match="attention shapes disagree"):
        T.multi_head_attention(q, [k, k], [k], 2)
    with pytest.raises(ShapeError, match="attention shapes disagree"):
        T.multi_head_attention(q, [k, k], [k, rand64(rng, 2, 4, 4)], 2)


# -- determinism / debug mode ----------------------------------------------------


def _grad_run(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
    h = T.gelu(T.matmul(x, w))
    out = T.softmax(h, axis=-1).sum(axis=0).mean()
    grads = T.mul(out, out).backward()
    return grads[x], grads[w]


def test_backward_bitwise_deterministic():
    gx1, gw1 = _grad_run(17)
    gx2, gw2 = _grad_run(17)
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_each_use_accumulates_exactly_once():
    x = t64([2.0], requires_grad=True)
    y = T.add(T.mul(x, 3.0), T.mul(x, 4.0))  # 7x
    np.testing.assert_array_equal(y.sum().backward()[x], [7.0])


def test_two_sweeps_of_one_graph_return_independent_equal_gradients():
    # a sweep starts from nothing: a second sweep over the same graph returns
    # the same bits in buffers of its own, and neither adds to the other
    rng = np.random.default_rng(29)
    x = rand64(rng, 3, 4, requires_grad=True)
    w = rand64(rng, 4, 4, requires_grad=True)
    loss = T.softmax(T.gelu(T.linear(x, w)), axis=-1).sum(axis=0).mean()
    loss = T.mul(loss, loss)
    first = loss.backward()
    kept = {t: g.copy() for t, g in first.items()}
    second = loss.backward()
    assert first is not second and set(first) == set(second) == {x, w}
    for t in (x, w):
        assert second[t].tobytes() == kept[t].tobytes() == first[t].tobytes()
        assert not np.shares_memory(first[t], second[t])


def test_backward_returns_exactly_the_reachable_leaves_that_require_gradients():
    rng = np.random.default_rng(31)
    a, b, unused = (rand64(rng, 3, requires_grad=True) for _ in range(3))
    const = rand64(rng, 3)
    frozen = rand64(rng, 3, requires_grad=True)
    with T.no_grad():
        detached = T.mul(frozen, 2.0)  # built without a graph: frozen is unreachable through it
    out = T.mul(T.add(T.mul(a, const), T.mul(b, b)), T.add(detached, const)).sum()
    assert set(out.backward()) == {a, b}
    assert const.sum().backward() == {} and set(T.tsum(a).backward()) == {a}


def test_tensor_keeps_no_gradient():
    x = t64([1.0, 2.0], requires_grad=True)
    y = T.mul(x, x)
    y.sum().backward()
    assert "grad" not in Tensor.__slots__
    assert not hasattr(x, "grad") and not hasattr(y, "grad")


def test_backward_keeps_only_leaf_gradients_and_shares_no_buffer():
    # backward hands gradient buffers on instead of copying them; the leaves
    # must still get correct gradients in buffers of their own, and no
    # interior gradient is left in the returned dict once its node has run
    rng = np.random.default_rng(23)
    leaves = {
        "x": rand64(rng, 2, 5, 4, requires_grad=True),
        "w": rand64(rng, 4, 4, requires_grad=True),
        "gain": rand64(rng, 4, requires_grad=True),
        "bias": rand64(rng, 4, requires_grad=True),
    }
    x, w, gain, bias = leaves.values()
    c = rng.standard_normal((2, 5, 4))
    outputs = []

    def loss():
        h = T.linear(x, w)  # x and h each feed two consumers
        r = T.add(h, T.gelu(T.layer_norm(h, gain, bias)))
        d = T.add(r, r)
        p = T.softmax(T.multi_head_attention(d, d, d, 2), axis=-1)
        out = T.add(T.mul(T.add(p, x), Tensor(c)).sum(), T.mul(T.add(gain, bias), T.add(gain, bias)).sum())
        outputs.append(out)
        return out

    report = check_gradients(loss, leaves)
    assert report.passed, str(report)
    returned = outputs[0].backward()  # the graph check_gradients swept, swept again
    assert set(returned) == set(leaves.values())
    grads = list(returned.values())
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)
    stack, interior = [outputs[0]], 0
    while stack:
        node = stack.pop()
        if node._backward_fn is not None:
            interior += 1
            assert node not in returned
            stack.extend(node._parents)
    assert interior >= 12


def test_finite_checks_mode_catches_nan():
    T.set_finite_checks(True)
    try:
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            T.div(t64([0.0]), t64([0.0]))
    finally:
        T.set_finite_checks(False)


def test_finite_checks_mode_names_a_dtype_leak():
    T.set_finite_checks(True)
    try:
        with pytest.raises(NumericsError, match="add returned float64 from float32 input"):
            T.add(Tensor(np.ones(2, dtype=np.float32)), Tensor(np.ones(2)))
    finally:
        T.set_finite_checks(False)


def _f32(rng, *shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


# every public op, as (inputs) -> output, over float32 inputs
FLOAT32_OPS = {
    "add": lambda a, b, w, v, k: T.add(a, b),
    "mul": lambda a, b, w, v, k: T.mul(a, b),
    "div": lambda a, b, w, v, k: T.div(a, T.add(T.mul(b, b), 1.0)),
    "matmul": lambda a, b, w, v, k: T.matmul(a, w),
    "swapaxes": lambda a, b, w, v, k: T.swapaxes(a, 0, 2),
    "broadcast_to": lambda a, b, w, v, k: T.broadcast_to(v, (3, 4)),
    "concat": lambda a, b, w, v, k: T.concat([a, b], axis=1),
    "take": lambda a, b, w, v, k: a[1, ::2],
    "tsum": lambda a, b, w, v, k: T.tsum(a, axis=1),
    "tmean": lambda a, b, w, v, k: T.tmean(a, axis=(0, 2)),
    "straight_through": lambda a, b, w, v, k: T.straight_through(b.data > 0, a),
    "softmax": lambda a, b, w, v, k: T.softmax(a, axis=-1),
    "gelu": lambda a, b, w, v, k: T.gelu(a),
    "layer_norm": lambda a, b, w, v, k: T.layer_norm(a, v, v),
    "linear": lambda a, b, w, v, k: T.linear(a, w, v),
    "multi_head_attention": lambda a, b, w, v, k: T.multi_head_attention(a, k, k, 2),
    "cross_entropy": lambda a, b, w, v, k: T.cross_entropy(a, np.zeros((2, 3), dtype=np.int64)),
    "sigmoid_bce": lambda a, b, w, v, k: T.sigmoid_bce(a, np.ones((2, 3, 4))),
}


# every op, plus attention over key/value segments
FLOAT32_CASES = FLOAT32_OPS | {
    "multi_head_attention_segments": lambda a, b, w, v, k: T.multi_head_attention(a, [k, b], [k, b], 2),
}


# public functions of semtok.tensor that build no graph node
NON_OPS = {
    "no_grad",
    "reuse_buffers",
    "parallel_workers",
    "single_threaded_blas",
    "parallel_map",
    "release_free_heap",
    "set_finite_checks",
    "assert_finite",
}


def test_float32_ops_name_every_public_op():
    # a new op cannot skip the float32 and buffer-pool checks below
    public = {name for name, fn in inspect.getmembers(T, inspect.isfunction) if fn.__module__ == T.__name__}
    assert {name for name in public if not name.startswith("_")} - NON_OPS == set(FLOAT32_OPS)


@pytest.mark.parametrize("name", sorted(FLOAT32_CASES))
def test_float32_stays_float32(name):
    # the output, the floating arrays its backward closure keeps, and the
    # gradients it leaves are all float32: no constant promotes to float64
    rng = np.random.default_rng(19)
    inputs = [_f32(rng, 2, 3, 4), _f32(rng, 2, 3, 4), _f32(rng, 4, 4), _f32(rng, 4), _f32(rng, 2, 5, 4)]
    out = FLOAT32_CASES[name](*inputs)
    assert out.data.dtype == np.float32
    for cell in out._backward_fn.__closure__ if out.requires_grad else ():
        kept = cell.cell_contents
        if isinstance(kept, (np.ndarray, np.generic)) and np.issubdtype(kept.dtype, np.floating):
            assert kept.dtype == np.float32, f"{name} keeps a {kept.dtype} array for backward"
    grads = out.sum().backward() if out.requires_grad else {}
    for t in inputs:
        assert t not in grads or grads[t].dtype == np.float32


def test_no_grad_blocks_graph():
    x = t64([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x).sum()
    assert y._backward_fn is None and not y.requires_grad


def test_grad_shape_matches_data():
    rng = np.random.default_rng(18)
    x = rand64(rng, 3, 4, 5, requires_grad=True)
    assert T.mul(x, 2.0).sum().backward()[x].shape == x.data.shape


def test_tmean_backward_peaks_at_about_its_gradient():
    # a float32 / int64 division would build the gradient as a float64 array
    # twice its size and cast it back: a peak of 3x the gradient's bytes
    rng = np.random.default_rng(23)
    x = _f32(rng, 32, 64, 64)
    w = Tensor(rng.standard_normal((32, 64)).astype(np.float32))
    out = T.mul(T.tmean(x, axis=-2), w).sum()
    tracemalloc.start()
    try:
        grad = out.backward()[x]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * grad.nbytes, f"backward peak {peak} B for a {grad.nbytes} B gradient"
    assert grad.tobytes() == np.broadcast_to(w.data[:, None, :] / np.float32(64), x.shape).tobytes()


@pytest.mark.parametrize("count", [3, 7, 48])
def test_tmean_gradient_in_float32_equals_the_rounded_float64_quotient(count):
    # float64 carries more than 2 * 24 + 2 bits, so rounding its quotient to
    # float32 gives the correctly rounded float32 quotient: the bits match
    rng = np.random.default_rng(count)
    x = _f32(rng, 5, count, 6)
    w = Tensor(rng.standard_normal((5, 6)).astype(np.float32))
    grad = T.mul(T.tmean(x, axis=1), w).sum().backward()[x]
    expected = (np.broadcast_to(w.data[:, None, :], x.shape) / np.int64(count)).astype(np.float32)
    assert grad.tobytes() == expected.tobytes()


# -- buffer pool ---------------------------------------------------------------


def _address(arr):
    return arr.__array_interface__["data"][0]


@pytest.mark.parametrize(
    "view",
    [
        lambda a: a.reshape(-1),  # reshape view
        lambda a: a.reshape(2, 3, 2, 4).swapaxes(-3, -2),  # strided head view, as attention reads heads
    ],
    ids=["reshape", "head_view"],
)
def test_pool_never_hands_out_a_buffer_still_viewed(view):
    with T.reuse_buffers():
        buf = T._empty((2, 3, 8), np.float32)
        buf[...] = np.arange(48, dtype=np.float32).reshape(buf.shape)
        address = _address(buf)
        kept = view(buf)
        expected = kept.copy()
        del buf
        other = T._empty((2, 3, 8), np.float32)
        other[...] = -1.0
        assert not np.shares_memory(kept, other)
        assert np.array_equal(kept, expected)
        del kept, other
        again = T._empty((6, 8), np.float32)  # same size and dtype, nothing else holds it: reused
        assert _address(again) == address


def test_empty_is_fresh_outside_the_pool_and_under_no_grad():
    assert T._empty((4, 5), np.float32).base is None
    with T.reuse_buffers() as pool:
        with T.no_grad():
            fresh = T._empty((4, 5), np.float32)
        assert fresh.base is None and pool == {}
        pooled = T._empty((4, 5), np.float32)
        assert pooled.base is not None and len(pool[(20, np.dtype(np.float32))]) == 1
    assert T._state.pool is None


def test_a_kept_pool_serves_a_later_block():
    # a caller that keeps the pool dict (training keeps one per shard) gets its buffers back
    kept = {}
    with T.reuse_buffers(kept):
        address = _address(T._empty((4, 5), np.float32))
    assert T._state.pool is None and len(kept[(20, np.dtype(np.float32))]) == 1
    with T.reuse_buffers(kept) as pool:
        assert pool is kept and _address(T._empty((20,), np.float32)) == address


@pytest.mark.parametrize("name", sorted(FLOAT32_CASES))
def test_pooled_steps_equal_unpooled_bitwise(name):
    # two forward+backward passes inside one pool (the second reuses the
    # first one's buffers) give the bytes of a pass with plain allocation
    def step():
        rng = np.random.default_rng(29)
        inputs = [_f32(rng, 2, 3, 4), _f32(rng, 2, 3, 4), _f32(rng, 4, 4), _f32(rng, 4), _f32(rng, 2, 5, 4)]
        out = FLOAT32_CASES[name](*inputs)
        grads = T.mul(out, T.gelu(out)).sum().backward() if out.requires_grad else {}
        return [out.data.tobytes()] + [grads[t].tobytes() for t in inputs if t in grads]

    reference = step()
    with T.reuse_buffers():
        first, second = step(), step()
    assert first == reference and second == reference


def _threaded(monkeypatch):
    """Let parallel_map use four threads whatever the machine has (it stays
    serial only where BLAS cannot be pinned)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))


def test_parallel_map_keeps_order_under_no_grad_and_refuses_grad_mode(monkeypatch):
    # the autodiff state is one for the process, so threads run forward work only
    _threaded(monkeypatch)
    ran = []

    def square(i):
        ran.append(i)
        return i * i

    with T.no_grad():
        assert T.parallel_map(square, range(7)) == [i * i for i in range(7)]
    ran.clear()
    with pytest.raises(RuntimeError, match="parallel_map"):
        T.parallel_map(square, range(7))
    assert ran == []


def test_parallel_map_gemm_bits_equal_the_serial_map():
    # BLAS runs one thread per call inside the map and its default count outside
    rng = np.random.default_rng(0)
    weight = Tensor(rng.standard_normal((64, 256)).astype(np.float32))
    batches = [rng.standard_normal((n, 32, 64)).astype(np.float32) for n in (32, 32, 7)]

    def run(x):
        return T.linear(Tensor(x), weight).data

    serial = [run(x) for x in batches]
    with T.no_grad():
        threaded = T.parallel_map(run, batches)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(threaded, serial))


ONE_ARENA_PROBE = """
import ctypes, os
import numpy as np
from semtok import tensor as T

os.sched_getaffinity = lambda pid: {0, 1}
T._blas_thread_control = lambda: (lambda: 1, lambda count: None)

def work(k):
    return float(np.random.default_rng(k).standard_normal((48, 48)).sum())

with T.no_grad():
    T.parallel_map(work, range(64))
ctypes.CDLL(None).malloc_stats()
"""


def test_threaded_parallel_map_allocates_from_one_malloc_arena():
    # malloc_trim gives back only part of what a helper thread's own arena
    # freed, so helpers share the main heap; malloc_stats prints each arena
    if getattr(ctypes.CDLL(None), "malloc_stats", None) is None:
        pytest.skip("the C library has no malloc_stats")
    src = os.path.dirname(os.path.dirname(T.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = subprocess.run(
        [sys.executable, "-c", ONE_ARENA_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert probe.returncode == 0, probe.stderr
    assert re.findall(r"^Arena \d+:$", probe.stderr, re.M) == ["Arena 0:"], probe.stderr
