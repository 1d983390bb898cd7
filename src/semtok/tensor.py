"""Minimal reverse-mode autodiff engine over dense numpy arrays.

Values live in numpy float32 (training) or float64 (gradient checking).
Every operation is a plain single-threaded numpy call with a fixed reduction
order, so two identical runs produce bitwise-identical values and gradients.
backward() returns its sweep's leaf gradients as a dict and writes nothing to
any tensor, so independent batches may run on threads (parallel_map),
forward-only or with backward: grad mode, the buffer pool and the running
sweep's gradients are per thread. Each batch runs the same numpy calls on any
thread, so the bits do not depend on the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericsError(ArithmeticError):
    """A non-finite value appeared where finite math is required."""


_finite_checks = False
_FREE_REFS = 3  # getrefcount of a pooled buffer nothing else holds: pool list, loop name, argument


class _ThreadState(threading.local):
    """Autodiff state each thread keeps for itself; class attributes are the defaults."""

    grad_enabled = True
    pool = None  # {(size, dtype): [flat buffers]} inside reuse_buffers()
    grads = None  # {tensor: gradient} of the running backward() sweep


_state = _ThreadState()


class no_grad:
    """Context manager that skips graph construction inside its block, on this thread."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


@contextlib.contextmanager
def reuse_buffers(pool=None):
    """Inside the block, grad-mode ops on this thread take their outputs,
    gradients and temporaries from `pool` (a fresh one if None), so a training
    loop's steps reuse one another's buffers instead of asking the heap for
    fresh memory each step. A buffer is handed out again only once nothing but
    the pool refers to it (views and reshapes refer to their base). A caller
    that keeps the pool dict across blocks keeps its buffers; one pool must
    not serve two threads at once."""
    prev, _state.pool = _state.pool, {} if pool is None else pool
    try:
        yield _state.pool
    finally:
        _state.pool = prev


def _empty(shape, dtype):
    """An uninitialised array, as np.empty; from the pool inside reuse_buffers() while grads are on."""
    pool = _state.pool
    if pool is None or not _state.grad_enabled:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    bufs = pool.setdefault((size, np.dtype(dtype)), [])
    for buf in bufs:
        if sys.getrefcount(buf) == _FREE_REFS:
            return buf.reshape(shape)
    buf = np.empty(size, dtype)
    bufs.append(buf)
    return buf.reshape(shape)


@functools.cache
def _blas_thread_control():
    """(get, set) of the loaded OpenBLAS's thread count, or None when no
    OpenBLAS with a known setter name is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"), ("openblas_", "64_")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def parallel_map(fn, items):
    """[fn(item) for item in items], run on one thread per usable core with
    BLAS held at one thread for the call (its own threads would compete with
    ours); serial when one core is usable or BLAS cannot be pinned. GEMM bits
    do not depend on BLAS's thread count, so the results equal the serial
    map's. Each item runs in the caller's grad mode, outside any buffer pool.
    Items may build graphs and run backward if they share no pool. Thread k
    of W serves items k, k + W, ..., the calling thread being thread 0, so an
    item lands in the same malloc arena on every call (training shards that
    moved between arenas from step to step raised the run's peak RSS). The
    helpers live for one call, so a later fork inherits no worker threads."""
    grad_enabled = _state.grad_enabled

    def call(item):
        prev = _state.grad_enabled, _state.pool
        _state.grad_enabled, _state.pool = grad_enabled, None
        try:
            return fn(item)
        finally:
            _state.grad_enabled, _state.pool = prev

    items = list(items)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, len(items))
    blas = _blas_thread_control() if workers > 1 else None
    if blas is None:
        return [call(item) for item in items]

    def stripe(k):
        return [call(item) for item in items[k::workers]]

    get_threads, set_threads = blas
    prev = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = pool.map(stripe, range(1, workers))
            stripes = [stripe(0), *helpers]
    finally:
        set_threads(prev)
    results = [None] * len(items)
    for k, part in enumerate(stripes):
        results[k::workers] = part
    return results


def release_free_heap():
    """Hand the C heap's free pages back to the OS (glibc's malloc_trim; a
    no-op where there is none). glibc shrinks a worker thread's malloc arena
    far less readily than the main heap, so what a threaded phase freed
    stays resident until this is called."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def set_finite_checks(enabled):
    """Toggle debug mode: every op output must be finite and keep its first input's dtype."""
    global _finite_checks
    _finite_checks = bool(enabled)


def assert_finite(arr, what="tensor"):
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(np.asarray(arr)))
        raise NumericsError(f"non-finite values in {what} at indices {bad[:8].tolist()}")


class Tensor:
    """Dense row-major array with optional gradient tracking.

    `data` is always a C-contiguous float32/float64 ndarray; backward()
    returns gradients of `data`'s shape instead of storing them on a tensor.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        if _finite_checks:
            assert_finite(self.data, "tensor constructor")

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------

    def _accumulate(self, g, owned=False):
        # owned=True hands over a buffer no one else reads: kept as is; other first g are copied.
        grads = _state.grads
        grad = grads.get(self)
        if grad is not None:
            grad += g
        elif owned and g.dtype == self.data.dtype and g.shape == self.data.shape:
            grads[self] = g
        else:
            grads[self] = grad = _empty(self.data.shape, self.data.dtype)
            grad[...] = g

    def backward(self):
        """Reverse-mode sweep from a scalar output; returns {leaf: gradient}.

        Visits each node exactly once in reverse topological order, so each use
        of a tensor contributes exactly one gradient accumulation. All of the
        sweep's gradients live in one dict keyed by tensor identity; a node's
        entry is popped just before its backward runs, and it may hand that
        buffer to one parent after its last read. The entries left are the
        reachable leaves that require gradients. Nothing is written to any
        tensor, so graphs that share leaves can run backward on different
        threads, and no sweep adds to another's gradients.
        """
        if self.size != 1:
            raise ShapeError(f"backward() needs a scalar output, got shape {self.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        grads = {self: np.ones_like(self.data)} if self.requires_grad else {}
        prev, _state.grads = _state.grads, grads
        try:
            for node in reversed(topo):
                if node._backward_fn is not None:
                    node._backward_fn(grads.pop(node))
        finally:
            _state.grads = prev
        return grads

    # -- method forms of ops ----------------------------------------------

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)



def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, backward_fn, what):
    """Build an op output node; drops the graph when grads are off."""
    if _finite_checks:
        assert_finite(data, what)
        if data.dtype != parents[0].dtype:
            raise NumericsError(f"{what} returned {data.dtype} from {parents[0].dtype} input")
    out = Tensor.__new__(Tensor)
    out.data = data
    if _state.grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(g, shape):
    """Sum gradient `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape), owned=True)

    out_data = _empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a.data, b.data))
    return _make(np.add(a.data, b.data, out=out_data), (a, b), backward, "add")


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape), owned=True)

    return _make(a.data * b.data, (a, b), backward, "mul")


def div(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return _make(a.data / b.data, (a, b), backward, "div")


# -- structural ops -------------------------------------------------------


def matmul(a, b):
    """Matrix product with numpy batching over leading dims.

    Gradients: dA = dC @ B^T, dB = A^T @ dC, summed over broadcast batch dims.
    """
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape), owned=True)

    return _make(a.data @ b.data, (a, b), backward, "matmul")


def swapaxes(a, ax1, ax2):
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.swapaxes(ax1, ax2))

    return _make(np.ascontiguousarray(a.data.swapaxes(ax1, ax2)), (a,), backward, "swapaxes")


def broadcast_to(a, shape):
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))

    return _make(np.ascontiguousarray(np.broadcast_to(a.data, shape)), (a,), backward, "broadcast_to")


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    shape = list(tensors[0].shape)
    shape[axis] = offsets[-1]

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis, out=_empty(shape, np.result_type(*datas)))
    return _make(out_data, tensors, backward, "concat")


def take(a, key):
    """Basic/advanced indexing; backward scatter-adds into the source."""
    a = _as_tensor(a)
    out_data = a.data[key]
    if np.isscalar(out_data) or out_data.ndim == 0:
        out_data = np.asarray(out_data, dtype=a.dtype)

    def backward(g):
        if a.requires_grad:
            buf = _empty(a.shape, a.dtype)
            buf.fill(0)
            np.add.at(buf, key, g)
            a._accumulate(buf, owned=True)

    return _make(np.ascontiguousarray(out_data), (a,), backward, "take")


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    out_data = np.asarray(out_data, dtype=a.dtype)

    def backward(g):
        if a.requires_grad:
            gg = g
            if not keepdims and axis is not None:
                gg = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.shape).astype(a.dtype, copy=False))

    return _make(out_data, (a,), backward, "sum")


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = np.asarray(a.data.mean(axis=axis, keepdims=keepdims), dtype=a.dtype)
    # in the input's dtype: a float32 / int64 division would build the gradient in float64
    count = a.dtype.type(a.size if axis is None else np.prod([a.shape[i] for i in np.atleast_1d(axis)]))

    def backward(g):
        if a.requires_grad:
            gg = g
            if not keepdims and axis is not None:
                gg = np.expand_dims(g, axis)
            a._accumulate(np.divide(np.broadcast_to(gg, a.shape), count, out=_empty(a.shape, a.dtype)), owned=True)

    return _make(out_data, (a,), backward, "mean")


def straight_through(value, a):
    """`value` in `a`'s dtype forward; backward hands `a` the gradient
    unchanged, as if the op were the identity (straight-through estimator)."""
    a = _as_tensor(a)
    value = np.ascontiguousarray(value, dtype=a.dtype)
    if value.shape != a.shape:
        raise ShapeError(f"straight-through value shape {value.shape} does not match {a.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g, owned=True)

    return _make(value, (a,), backward, "straight_through")


# -- neural primitives ----------------------------------------------------


def softmax(a, axis):
    """Numerically-stable softmax along `axis`; output sums to 1 there."""
    a = _as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    out_data = np.subtract(a.data, a.data.max(axis=axis, keepdims=True), out=_empty(a.shape, a.dtype))
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = np.multiply(g, out_data, out=_empty(g.shape, g.dtype)).sum(axis=axis, keepdims=True)
            g -= dot
            g *= out_data
            a._accumulate(g, owned=True)

    return _make(out_data, (a,), backward, "softmax")


def gelu(a):
    """GELU via the tanh approximation; constants take the input's dtype."""
    a = _as_tensor(a)
    c = a.dtype.type(np.sqrt(2.0 / np.pi))
    x = a.data
    t = np.multiply(x, x, out=_empty(x.shape, x.dtype))
    t *= 0.044715 * c
    t += c
    t *= x
    np.tanh(t, out=t)  # tanh(c (x + 0.044715 x^3))
    out_data = np.multiply(0.5, x, out=_empty(x.shape, x.dtype))
    out_data *= np.add(1.0, t, out=_empty(x.shape, x.dtype))

    def backward(g):
        if a.requires_grad:
            # gelu' = 0.5 (1 + t) + 0.5 (1 - t^2) x c (1 + 3 * 0.044715 x^2)
            grad = np.multiply(x, x, out=_empty(x.shape, x.dtype))
            grad *= 3 * 0.044715 * c
            grad += c
            grad *= x
            scratch = np.multiply(t, t, out=_empty(x.shape, x.dtype))
            grad *= np.subtract(1.0, scratch, out=scratch)
            grad += np.add(1.0, t, out=scratch)
            g *= 0.5
            g *= grad
            a._accumulate(g, owned=True)

    return _make(out_data, (a,), backward, "gelu")


def layer_norm(a, gain, bias, eps=1e-5):
    """Layer normalization over the last axis with learned gain/bias."""
    a = _as_tensor(a)
    gain = _as_tensor(gain, like=a)
    bias = _as_tensor(bias, like=a)
    mu = a.data.mean(axis=-1, keepdims=True)
    normed = np.subtract(a.data, mu, out=_empty(a.shape, a.dtype))
    var = np.multiply(normed, normed, out=_empty(a.shape, a.dtype)).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    normed *= inv
    out_data = np.multiply(normed, gain.data, out=_empty(a.shape, np.result_type(normed, gain.data)))
    out_data += bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(np.multiply(g, normed, out=_empty(g.shape, g.dtype)), gain.shape), owned=True)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if a.requires_grad:
            g *= gain.data
            m1 = g.mean(axis=-1, keepdims=True)
            m2 = np.multiply(g, normed, out=_empty(g.shape, g.dtype)).mean(axis=-1, keepdims=True)
            g -= m1
            g -= np.multiply(normed, m2, out=_empty(g.shape, g.dtype))
            g *= inv
            a._accumulate(g, owned=True)

    return _make(out_data, (a, gain, bias), backward, "layer_norm")


def linear(x, weight, bias=None):
    """x @ weight (+ bias), weight (in_dim, out_dim): one node, one 2-D GEMM over x's folded leading dims."""
    x = _as_tensor(x)
    if weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} x {weight.shape}")
    x2d = x.data.reshape(-1, weight.shape[0])
    dtype = np.result_type(x2d, weight.data)
    out_data = np.matmul(x2d, weight.data, out=_empty((x2d.shape[0], weight.shape[1]), dtype))
    if bias is not None:
        out_data += bias.data

    def backward(g):
        g2d = g.reshape(-1, weight.shape[1])
        if x.requires_grad:
            dx = np.matmul(g2d, weight.data.T, out=_empty(x2d.shape, g.dtype))
            x._accumulate(dx.reshape(x.shape), owned=True)
        if weight.requires_grad:
            weight._accumulate(np.matmul(x2d.T, g2d, out=_empty(weight.shape, dtype)), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2d.sum(axis=0), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data.reshape(*x.shape[:-1], weight.shape[1]), parents, backward, "linear")


def multi_head_attention(q, k, v, num_heads):
    """Scaled dot-product attention; every query attends to every key.

    q is (..., S_q, C); k and v are (..., S_k, C); C must divide by num_heads.
    Restricted layouts are built by choosing which keys/values to pass. One
    node: heads are strided views, so splitting and merging copy nothing;
    with P = softmax(scale Q Kᵀ), dP = dO Vᵀ and dS = P (dP - rowsum(dP P)),
    backward is dV = Pᵀ dO, dQ = scale dS K and dK = dSᵀ (scale Q).
    """
    q = _as_tensor(q)
    k = _as_tensor(k)
    v = _as_tensor(v)
    c = q.shape[-1]
    if c % num_heads != 0:
        raise ShapeError(f"embed dim {c} not divisible by {num_heads} heads")
    if k.shape != v.shape or k.shape[:-2] != q.shape[:-2] or k.shape[-1] != c:
        raise ShapeError(f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    head_dim = c // num_heads
    scale = q.dtype.type(1.0 / np.sqrt(head_dim))

    def heads(arr):  # (..., S, C) -> (..., H, S, D) view
        return arr.reshape(*arr.shape[:-1], num_heads, head_dim).swapaxes(-3, -2)

    def merged(a, b):  # head-wise a @ b written straight into an (..., S, C) array
        out = _empty((*a.shape[:-3], a.shape[-2], c), a.dtype)
        np.matmul(a, b, out=heads(out))
        return out

    # scaled q keeps q's (..., S, H, D) memory order, as q's head view times a scalar would
    qh = np.multiply(heads(q.data), scale, out=heads(_empty(q.shape, q.dtype)))
    kh, vh = heads(k.data), heads(v.data)
    probs = np.matmul(qh, kh.swapaxes(-1, -2), out=_empty((*qh.shape[:-1], kh.shape[-2]), q.dtype))
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = heads(g)
        if v.requires_grad:
            v._accumulate(merged(probs.swapaxes(-1, -2), gh), owned=True)
        ds = np.matmul(gh, vh.swapaxes(-1, -2), out=_empty(probs.shape, probs.dtype))
        ds -= np.multiply(ds, probs, out=_empty(probs.shape, probs.dtype)).sum(axis=-1, keepdims=True)
        ds *= probs
        if q.requires_grad:
            dq = merged(ds, kh)
            dq *= scale
            q._accumulate(dq, owned=True)
        if k.requires_grad:
            k._accumulate(merged(ds.swapaxes(-1, -2), qh), owned=True)

    return _make(merged(probs, vh), (q, k, v), backward, "multi_head_attention")


def cross_entropy(logits, targets):
    """Mean softmax cross-entropy; logits (..., K), integer targets (...)."""
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    m = logits.data.max(axis=-1, keepdims=True)
    shifted = logits.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1)) + m[..., 0]
    picked = np.take_along_axis(logits.data, targets[..., None], axis=-1)[..., 0]
    count = max(targets.size, 1)
    out_data = np.asarray((lse - picked).sum() / count, dtype=logits.dtype)

    def backward(g):
        if logits.requires_grad:
            probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)))
            onehot = np.zeros_like(logits.data)
            np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
            logits._accumulate((g * (probs - onehot) / count).astype(logits.dtype, copy=False))

    return _make(out_data, (logits,), backward, "cross_entropy")


def sigmoid_bce(logits, targets):
    """Mean binary cross-entropy on logits against {0,1} targets (stable form)."""
    logits = _as_tensor(logits)
    t = np.asarray(targets, dtype=logits.dtype)
    if t.shape != logits.shape:
        raise ShapeError(f"targets shape {t.shape} does not match logits {logits.shape}")
    x = logits.data
    per = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    count = max(x.size, 1)
    out_data = np.asarray(per.sum() / count, dtype=logits.dtype)

    def backward(g):
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-x))
            logits._accumulate((g * (sig - t) / count).astype(logits.dtype, copy=False))

    return _make(out_data, (logits,), backward, "sigmoid_bce")
