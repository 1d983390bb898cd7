"""Minimal reverse-mode autodiff engine over dense numpy arrays.

Values live in numpy float32 (training) or float64 (gradient checking).
Every operation is a plain single-threaded numpy call with a fixed reduction
order, so two identical runs produce bitwise-identical values and gradients.
backward() returns its sweep's leaf gradients as a dict and writes nothing to
any tensor. Grad mode, the buffer pool and the running sweep's gradients are
one state for the whole process: graphs are built and swept on one thread,
and threads (parallel_map) run forward-only work.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericsError(ArithmeticError):
    """A non-finite value appeared where finite math is required."""


_finite_checks = False
_FREE_REFS = 3  # getrefcount of a pooled buffer nothing else holds: pool list, loop name, argument
_M_ARENA_MAX = -8  # glibc's mallopt parameter, from <malloc.h>


class _State:
    """The process's autodiff state; class attributes are the defaults."""

    grad_enabled = True
    pool = None  # {(size, dtype): [flat buffers]} inside reuse_buffers()
    grads = None  # {tensor: gradient} of the running backward() sweep


_state = _State()


class no_grad:
    """Context manager that skips graph construction inside its block."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


@contextlib.contextmanager
def reuse_buffers(pool=None):
    """Inside the block, grad-mode ops take their outputs, gradients and
    temporaries from `pool` (a fresh one if None), so a training loop's steps
    reuse one another's buffers instead of asking the heap for fresh memory
    each step. A buffer is handed out again only once nothing but the pool
    refers to it (views and reshapes refer to their base). A caller that
    keeps the pool dict across blocks keeps its buffers."""
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


def parallel_workers(tasks):
    """How many workers may run `tasks` independent tasks at once: one per
    usable core, at most `tasks`; 1 when one core is usable or BLAS cannot
    be held at one thread (see single_threaded_blas)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, tasks)
    return workers if workers > 1 and _blas_thread_control() is not None else 1


@contextlib.contextmanager
def single_threaded_blas():
    """Hold BLAS at one thread inside the block (a no-op where it cannot be
    held), so its own threads do not compete with the workers that
    parallel_workers allowed. BLAS's thread count can change GEMM bits (a
    weight-gradient GEMM over 520 rows rounds differently on one OpenBLAS
    thread than on two), so training holds it at one thread for all of its
    steps, on any number of cores."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get_threads, set_threads = control
    prev = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(prev)


def parallel_map(fn, items):
    """[fn(item) for item in items] for forward-only work, run on the threads
    parallel_workers allows, with BLAS held at one thread while they run;
    serial otherwise. It serves evaluation and stage 1's eval loss, which
    spend their time in numpy, outside the interpreter lock (training shards
    run on processes, see train._fit). The autodiff state is one for the
    process, so the map refuses to start in grad mode: call it under
    no_grad(). Thread k of W serves items k, k + W, ..., the calling thread
    being thread 0. Before its first helper starts, the process is held at
    one malloc arena (_one_malloc_arena), so the helpers allocate from the
    heap that release_free_heap trims. The helpers live for one call, so a
    later fork inherits no worker threads."""
    if _state.grad_enabled:
        raise RuntimeError("parallel_map runs forward-only work: call it under no_grad()")
    items = list(items)
    workers = parallel_workers(len(items))
    if workers == 1:
        return [fn(item) for item in items]

    def stripe(k):
        return [fn(item) for item in items[k::workers]]

    _one_malloc_arena()
    with single_threaded_blas(), ThreadPoolExecutor(workers - 1) as pool:
        helpers = pool.map(stripe, range(1, workers))
        stripes = [stripe(0), *helpers]
    results = [None] * len(items)
    for k, part in enumerate(stripes):
        results[k::workers] = part
    return results


@functools.cache
def _one_malloc_arena():
    """Hold glibc's malloc at its one main arena for the rest of the process
    (M_ARENA_MAX = 1; a no-op where there is no mallopt). Without it each
    helper thread takes an arena of its own, and malloc_trim gives back
    only part of what that arena freed."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


def release_free_heap():
    """Hand the C heap's free pages back to the OS (glibc's malloc_trim; a
    no-op where there is none)."""
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

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
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
        tensor, so no sweep adds to another's gradients.
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


# -- array kernels ---------------------------------------------------------
# The forward and input-gradient arithmetic of add, gelu, layer_norm, linear
# and multi_head_attention on plain arrays. Those ops and the encoder's fused
# semantic half (TransformerBlock.forward_isolated_sem) both call them, so
# each op's arithmetic exists once and the two give the same bits. Outputs
# and temporaries come from _empty; an *_input_grad that says so works in the
# gradient buffer it is handed.


def _add_arrays(a, b):
    return np.add(a, b, out=_empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b)))


def _gelu_arrays(x):
    """(gelu(x), the tanh term its gradient reads)."""
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    t = np.multiply(x, x, out=_empty(x.shape, x.dtype))
    t *= 0.044715 * c
    t += c
    t *= x
    np.tanh(t, out=t)  # tanh(c (x + 0.044715 x^3))
    out = np.multiply(0.5, x, out=_empty(x.shape, x.dtype))
    out *= np.add(1.0, t, out=_empty(x.shape, x.dtype))
    return out, t


def _gelu_input_grad(g, x, t):
    """gelu's input gradient, in g's buffer."""
    # gelu' = 0.5 (1 + t) + 0.5 (1 - t^2) x c (1 + 3 * 0.044715 x^2)
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    grad = np.multiply(x, x, out=_empty(x.shape, x.dtype))
    grad *= 3 * 0.044715 * c
    grad += c
    grad *= x
    scratch = np.multiply(t, t, out=_empty(x.shape, x.dtype))
    grad *= np.subtract(1.0, scratch, out=scratch)
    grad += np.add(1.0, t, out=scratch)
    g *= 0.5
    g *= grad
    return g


def _layer_norm_arrays(x, gain, bias, eps=1e-5):
    """(output, normalized input, 1/std) of layer normalization over the last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    normed = np.subtract(x, mu, out=_empty(x.shape, x.dtype))
    var = np.multiply(normed, normed, out=_empty(x.shape, x.dtype)).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    normed *= inv
    out = np.multiply(normed, gain, out=_empty(x.shape, np.result_type(normed, gain)))
    out += bias
    return out, normed, inv


def _layer_norm_input_grad(g, gain, normed, inv):
    """Layer normalization's input gradient, in g's buffer."""
    g *= gain
    m1 = g.mean(axis=-1, keepdims=True)
    m2 = np.multiply(g, normed, out=_empty(g.shape, g.dtype)).mean(axis=-1, keepdims=True)
    g -= m1
    g -= np.multiply(normed, m2, out=_empty(g.shape, g.dtype))
    g *= inv
    return g


def _linear_arrays(x, weight, bias=None):
    """x @ weight (+ bias) as one 2-D GEMM over x's folded leading dims."""
    x2d = x.reshape(-1, weight.shape[0])
    out = np.matmul(x2d, weight, out=_empty((x2d.shape[0], weight.shape[1]), np.result_type(x2d, weight)))
    if bias is not None:
        out += bias
    return out.reshape(*x.shape[:-1], weight.shape[1])


def _linear_input_grad(g, weight):
    g2d = g.reshape(-1, weight.shape[1])
    dx = np.matmul(g2d, weight.T, out=_empty((g2d.shape[0], weight.shape[0]), g.dtype))
    return dx.reshape(*g.shape[:-1], weight.shape[0])


def _heads(arr, num_heads):
    """(..., S, C) -> (..., H, S, C/H) view."""
    return arr.reshape(*arr.shape[:-1], num_heads, arr.shape[-1] // num_heads).swapaxes(-3, -2)


def _merged(a, b):
    """Head-wise a @ b written straight into an (..., S, C) array."""
    out = _empty((*a.shape[:-3], a.shape[-2], a.shape[-3] * b.shape[-1]), a.dtype)
    np.matmul(a, b, out=_heads(out, a.shape[-3]))
    return out


def _joined(arrays):
    """Arrays joined along the key axis in one copy."""
    shape = (*arrays[0].shape[:-2], sum(a.shape[-2] for a in arrays), arrays[0].shape[-1])
    return np.concatenate(arrays, axis=-2, out=_empty(shape, np.result_type(*arrays)))


def _attention_arrays(q, k, v, num_heads):
    """(attention output, what its gradients read) for q over keys k and values v."""
    scale = q.dtype.type(1.0 / np.sqrt(q.shape[-1] // num_heads))
    # scaled q keeps q's (..., S, H, D) memory order, as q's head view times a scalar would
    qh = np.multiply(_heads(q, num_heads), scale, out=_heads(_empty(q.shape, q.dtype), num_heads))
    kh, vh = _heads(k, num_heads), _heads(v, num_heads)
    probs = np.matmul(qh, kh.swapaxes(-1, -2), out=_empty((*qh.shape[:-1], kh.shape[-2]), q.dtype))
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return _merged(probs, vh), (qh, kh, vh, probs, scale)


def _attention_input_grads(g, saved, q_grad, k_cols, v_cols):
    """(dq if q_grad, dk of the k_cols key slice, dv of the v_cols key slice),
    None for each not asked for."""
    qh, kh, vh, probs, scale = saved
    gh = _heads(g, qh.shape[-3])
    dv = None if v_cols is None else _merged(probs[..., v_cols].swapaxes(-1, -2), gh)
    ds = np.matmul(gh, vh.swapaxes(-1, -2), out=_empty(probs.shape, probs.dtype))
    ds -= np.multiply(ds, probs, out=_empty(probs.shape, probs.dtype)).sum(axis=-1, keepdims=True)
    ds *= probs
    dq = None
    if q_grad:
        dq = _merged(ds, kh)
        dq *= scale
    dk = None if k_cols is None else _merged(ds[..., k_cols].swapaxes(-1, -2), qh)
    return dq, dk, dv


# -- elementwise arithmetic ---------------------------------------------


def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape), owned=True)

    return _make(_add_arrays(a.data, b.data), (a, b), backward, "add")


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
    out_data, t = _gelu_arrays(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_gelu_input_grad(g, a.data, t), owned=True)

    return _make(out_data, (a,), backward, "gelu")


def layer_norm(a, gain, bias, eps=1e-5):
    """Layer normalization over the last axis with learned gain/bias."""
    a = _as_tensor(a)
    gain = _as_tensor(gain, like=a)
    bias = _as_tensor(bias, like=a)
    out_data, normed, inv = _layer_norm_arrays(a.data, gain.data, bias.data, eps)

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(np.multiply(g, normed, out=_empty(g.shape, g.dtype)), gain.shape), owned=True)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if a.requires_grad:
            a._accumulate(_layer_norm_input_grad(g, gain.data, normed, inv), owned=True)

    return _make(out_data, (a, gain, bias), backward, "layer_norm")


def linear(x, weight, bias=None):
    """x @ weight (+ bias), weight (in_dim, out_dim): one node, one 2-D GEMM over x's folded leading dims."""
    x = _as_tensor(x)
    if weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} x {weight.shape}")
    out_data = _linear_arrays(x.data, weight.data, None if bias is None else bias.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_linear_input_grad(g, weight.data), owned=True)
        g2d = g.reshape(-1, weight.shape[1])
        if weight.requires_grad:
            x2d = x.data.reshape(-1, weight.shape[0])
            dw = _empty(weight.shape, np.result_type(x2d, weight.data))
            weight._accumulate(np.matmul(x2d.T, g2d, out=dw), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2d.sum(axis=0), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, backward, "linear")


def multi_head_attention(q, k, v, num_heads):
    """Scaled dot-product attention; every query attends to every key.

    q is (..., S_q, C); k and v are (..., S_k, C); C must divide by
    num_heads. Restricted layouts are built by choosing which keys/values to
    pass. One node: heads are strided views, so splitting and merging copy
    nothing; with P = softmax(scale Q Kᵀ), dP = dO Vᵀ and
    dS = P (dP - rowsum(dP P)), backward is dV = Pᵀ dO, dQ = scale dS K and
    dK = dSᵀ (scale Q). A key or value that needs no gradient gets none and
    is no graph parent.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    c = q.shape[-1]
    if c % num_heads != 0:
        raise ShapeError(f"embed dim {c} not divisible by {num_heads} heads")
    if k.shape != v.shape or k.shape[:-2] != q.shape[:-2] or k.shape[-1] != c:
        raise ShapeError(f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    out_data, saved = _attention_arrays(q.data, k.data, v.data, num_heads)
    k_cols, v_cols = (slice(None) if t.requires_grad else None for t in (k, v))

    def backward(g):
        dq, dk, dv = _attention_input_grads(g, saved, q.requires_grad, k_cols, v_cols)
        for t, grad in ((v, dv), (q, dq), (k, dk)):
            if grad is not None:
                t._accumulate(grad, owned=True)

    return _make(out_data, (q, *(t for t in (k, v) if t.requires_grad)), backward, "multi_head_attention")


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
