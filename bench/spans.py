"""Span tracer for the benchmark's traced run.

Wraps public functions and methods of the semtok modules from outside the
package: each wrapper records a span (name, start, end, parent, run id) and,
for some boundaries, a small attribute used by the per-layer counters. Spans
are kept in memory and written out when the run ends. Nothing under `src/`
is edited; `uninstall` restores every original binding.

A run id is the index of the workload operation the span belongs to, so all
spans of one operation share it.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Output nodes of these ops come from a nested op (reshape, add), so their
# backward time is already attributed to that op and is not wrapped again.
COMPOSITE_TENSOR_OPS = ("multi_head_attention",)

TENSOR_OPS = (
    "matmul",
    "gelu",
    "layer_norm",
    "softmax",
    "multi_head_attention",
    "add",
    "mul",
    "take",
    "concat",
    "cross_entropy",
    "sigmoid_bce",
)
BACKWARD_OPS = tuple(op for op in TENSOR_OPS if op not in COMPOSITE_TENSOR_OPS)

# (span name, module, owner attribute path); the owner path names a module
# function or "Class.method".
BOUNDARIES = (
    [(f"tensor.{op}", "semtok.tensor", op) for op in TENSOR_OPS]
    + [
        ("tensor.backward", "semtok.tensor", "Tensor.backward"),
        ("encoder.patch_embed", "semtok.encoder", "Encoder.patch_embed"),
        ("encoder.encode", "semtok.encoder", "Encoder.encode"),
        ("encoder.image_state_stack", "semtok.encoder", "Encoder.image_state_stack"),
        ("encoder.encode_sem_cached", "semtok.encoder", "Encoder.encode_sem_cached"),
        ("encoder.block.forward_plain", "semtok.encoder", "TransformerBlock.forward_plain"),
        ("encoder.block.forward_isolated", "semtok.encoder", "TransformerBlock.forward_isolated"),
        ("encoder.block.forward_isolated_sem", "semtok.encoder", "TransformerBlock.forward_isolated_sem"),
        ("grouping.sample_gumbel", "semtok.grouping", "sample_gumbel"),
        ("grouping.similarity", "semtok.grouping", "similarity"),
        ("grouping.hard_assign", "semtok.grouping", "hard_assign"),
        ("grouping.merge", "semtok.grouping", "merge"),
        ("grouping.group_forward", "semtok.grouping", "group_forward"),
        ("grouping.assign_eval", "semtok.grouping", "assign_eval"),
        ("grouping.write_assignment_pgm", "semtok.grouping", "write_assignment_pgm"),
        ("baselines.reduce", "semtok.baselines", "reduce"),
        ("baselines.random_drop_batch", "semtok.baselines", "random_drop_batch"),
        ("baselines.avg_pool", "semtok.baselines", "avg_pool"),
        ("baselines.pooling_matrix", "semtok.baselines", "pooling_matrix"),
        ("model.Connector.forward", "semtok.model", "Connector.forward"),
        ("model.BagHead.forward", "semtok.model", "BagHead.forward"),
        ("model.TaskHead.forward", "semtok.model", "TaskHead.forward"),
        ("optim.Adam.step", "semtok.optim", "Adam.step"),
        ("train.train_stage1", "semtok.train", "train_stage1"),
        ("train.train_stage2", "semtok.train", "train_stage2"),
        ("train.Stage2Model.prepare", "semtok.train", "Stage2Model.prepare"),
        ("train.Stage2Model.visual_outputs", "semtok.train", "Stage2Model.visual_outputs"),
        ("train.evaluate", "semtok.train", "evaluate"),
        ("train.load_stage2_model", "semtok.train", "load_stage2_model"),
        ("tensor_io.write_tensor", "semtok.tensor_io", "write_tensor"),
        ("tensor_io.read_tensor", "semtok.tensor_io", "read_tensor"),
        ("tensor_io.save_checkpoint", "semtok.tensor_io", "save_checkpoint"),
        ("tensor_io.load_checkpoint", "semtok.tensor_io", "load_checkpoint"),
        ("data.generate_scene", "semtok.data", "generate_scene"),
        ("data.generate_dataset", "semtok.data", "generate_dataset"),
        ("data.load_dataset", "semtok.data", "load_dataset"),
        ("data.token_regions", "semtok.data", "SceneDataset.token_regions"),
    ]
)
SPAN_NAMES = tuple(name for name, _, _ in BOUNDARIES)

# Thin layers: every public function is counted, no span is recorded.
COUNTED_MODULES = {"metrics": "semtok.metrics", "cli": "semtok.cli"}

# The task head reuses TransformerBlock; its blocks belong to the head's span.
SKIP_UNDER = {"encoder.block.forward_plain": "model.TaskHead.forward"}

HOOK = "trace.hook"
FIELDS = ("name", "start_ns", "end_ns", "parent", "run_id", "attr")


def _tensor_out_bytes(args, kwargs, out):
    return out.data.nbytes


def _occupied(args, kwargs, out):
    """(images, summed occupied-group share) of a straight-through one-hot
    (..., N, M): a group is occupied when some image token is assigned to it."""
    onehot = out.data.reshape((-1,) + out.data.shape[-2:])
    occupied = (onehot.max(axis=-1) > 0.5).sum(axis=-1) / onehot.shape[-2]
    return [int(onehot.shape[0]), float(occupied.sum())]


ATTR_HOOKS = {
    **{f"tensor.{op}": _tensor_out_bytes for op in TENSOR_OPS},
    "grouping.hard_assign": _occupied,
    "encoder.image_state_stack": lambda args, kwargs, out: int(args[1].shape[0]),
    "tensor_io.write_tensor": lambda args, kwargs, out: int(np.asarray(args[1]).nbytes),
    "tensor_io.read_tensor": lambda args, kwargs, out: int(out.nbytes),
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = {}
        self.run_id = -1
        self.counts = {}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.run_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.open_names[name] = self.open_names.get(name, 0) + 1
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self.stack.pop()
        self.open_names[rec[0]] -= 1

    def _wrap(self, name, fn):
        tracer = self
        hook = ATTR_HOOKS.get(name)
        skip_under = SKIP_UNDER.get(name)
        is_backward_op = name.startswith("tensor.") and name[len("tensor.") :] in BACKWARD_OPS
        backward_name = f"{name}.backward" if is_backward_op else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_under is not None and tracer.open_names.get(skip_under):
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None or backward_name is not None:
                hook_rec = tracer._open(HOOK)  # keeps hook cost out of every self time
                if hook is not None:
                    rec[5] = hook(args, kwargs, out)
                if backward_name is not None and out._backward_fn is not None:
                    out._backward_fn = tracer._wrap_backward(backward_name, out._backward_fn)
                tracer._close(hook_rec)
            return out

        return wrapper

    def _wrap_backward(self, name, backward_fn):
        tracer = self

        def timed(g):
            rec = tracer._open(name)
            try:
                backward_fn(g)
            finally:
                tracer._close(rec)

        return timed

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.run_id)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped, extra_modules):
        """Rebind every module-level name bound to `original`, including
        `from`-imported copies, so no call site keeps the unwrapped function."""
        modules = [m for n, m in sys.modules.items() if n == "semtok" or n.startswith("semtok.")]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def install(self, extra_modules=()):
        """Wrap every boundary; `extra_modules` (the benchmark's own modules)
        are rebound too in case they imported a wrapped name directly."""
        for name, module_name, path in BOUNDARIES:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, vars(cls)[meth]))
            else:
                original = getattr(module, path)
                self._replace_everywhere(original, self._wrap(name, original), extra_modules)
        for layer, module_name in COUNTED_MODULES.items():
            for attr, value in list(vars(sys.modules[module_name]).items()):
                if inspect.isfunction(value) and value.__module__ == module_name and not attr.startswith("_"):
                    self._replace_everywhere(value, self._count(layer, value), extra_modules)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path):
        Path(path).write_text(
            json.dumps({"fields": FIELDS, "spans": self.spans, "counts": [[k[0], k[1], v] for k, v in self.counts.items()]})
        )


def _child_index(spans):
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(i)
    return children


def _nearest_ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return p
        p = spans[p][3]
    return -1


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def summarize(tracer, run_ids):
    """Per-layer numbers per operation: self time (span minus child spans)
    and call count at each boundary, as medians over the traced operations,
    plus the derived counters. Returns (metrics, table_rows)."""
    spans = tracer.spans
    children = _child_index(spans)
    per_run = {r: {} for r in run_ids}

    def bump(run, key, value):
        bucket = per_run.get(run)
        if bucket is not None:
            bucket[key] = bucket.get(key, 0.0) + value

    for i, (name, start, end, _, run, attr) in enumerate(spans):
        if name == HOOK:
            continue
        child_ns = sum(spans[c][2] - spans[c][1] for c in children[i])
        bump(run, f"{name}.self_ms", (end - start - child_ns) / 1e6)
        if not name.endswith(".backward") or name == "tensor.backward":
            bump(run, f"{name}.calls", 1)
        if name.startswith("tensor.") and attr is not None:
            bump(run, "tensor.out_bytes", attr)
        elif name in ("tensor_io.write_tensor", "tensor_io.read_tensor"):
            bump(run, f"{name}.bytes", attr)
        elif name == "grouping.hard_assign":
            bump(run, "occupied.images", attr[0])
            bump(run, "occupied.sum", attr[1])
        elif name == "encoder.image_state_stack" and _nearest_ancestor(spans, i, "train.Stage2Model.prepare") >= 0:
            bump(run, "train.Stage2Model.prepare.scenes", attr)
        elif name == "train.Stage2Model.visual_outputs":
            bump(run, "visual_outputs.total", 1)
            if not any(spans[c][0] in ("train.Stage2Model.prepare", "encoder.encode") for c in children[i]):
                bump(run, "visual_outputs.hits", 1)
        elif name == "grouping.similarity" and _nearest_ancestor(spans, i, "train.evaluate") >= 0:
            bump(run, "eval.similarity", 1)

    # eval batches of grouping passes: task-head calls inside an evaluate span
    # that computed at least one similarity
    sim_evals = {
        _nearest_ancestor(spans, i, "train.evaluate")
        for i, rec in enumerate(spans)
        if rec[0] == "grouping.similarity"
    }
    sim_evals.discard(-1)
    for i, rec in enumerate(spans):
        if rec[0] == "model.TaskHead.forward" and _nearest_ancestor(spans, i, "train.evaluate") in sim_evals:
            bump(rec[4], "eval.batches", 1)

    for (layer, run), n in tracer.counts.items():
        bump(run, f"{layer}.calls", n)

    def median_of(key):
        return statistics.median(per_run[r].get(key, 0.0) for r in run_ids) if run_ids else 0.0

    def ratio(num, den):
        n, d = median_of(num), median_of(den)
        return n / d if d else 0.0

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = (median_of(f"{name}.self_ms"), "ms")
        metrics[f"{name}.calls"] = (median_of(f"{name}.calls"), "count")
    for op in BACKWARD_OPS:
        metrics[f"tensor.{op}.backward.self_ms"] = (median_of(f"tensor.{op}.backward.self_ms"), "ms")
    metrics["tensor.out_bytes"] = (median_of("tensor.out_bytes"), "bytes")
    metrics["grouping.similarity.calls_per_batch"] = (ratio("eval.similarity", "eval.batches"), "count")
    metrics["grouping.occupied_ratio"] = (ratio("occupied.sum", "occupied.images"), "ratio")
    metrics["train.Stage2Model.prepare.scenes"] = (median_of("train.Stage2Model.prepare.scenes"), "count")
    metrics["train.frozen_cache.hit_ratio"] = (ratio("visual_outputs.hits", "visual_outputs.total"), "ratio")
    metrics["tensor_io.write_tensor.bytes"] = (median_of("tensor_io.write_tensor.bytes"), "bytes")
    metrics["tensor_io.read_tensor.bytes"] = (median_of("tensor_io.read_tensor.bytes"), "bytes")
    for layer in COUNTED_MODULES:
        metrics[f"{layer}.calls"] = (median_of(f"{layer}.calls"), "count")

    # step latency: time between successive Adam.step completions in one op
    intervals = []
    last_end = {}
    for name, _, end, _, run, _ in spans:
        if name == "optim.Adam.step" and run in per_run:
            if run in last_end:
                intervals.append((end - last_end[run]) / 1e6)
            last_end[run] = end
    metrics["optim.step_interval_ms.p50"] = (_percentile(intervals, 50), "ms")
    metrics["optim.step_interval_ms.p90"] = (_percentile(intervals, 90), "ms")

    names = SPAN_NAMES + tuple(f"tensor.{op}.backward" for op in BACKWARD_OPS)
    table = [(name, median_of(f"{name}.self_ms"), median_of(f"{name}.calls")) for name in names]
    table.sort(key=lambda row: -row[1])
    return metrics, table


def format_table(table, traced_ops):
    lines = [f"per-layer self time, median per operation over {traced_ops} traced operation(s)"]
    lines.append(f"{'span':44s} {'self_ms':>12s} {'calls':>10s}")
    for name, self_ms, calls in table:
        shown = "-" if name.endswith(".backward") and name != "tensor.backward" else f"{calls:.0f}"
        lines.append(f"{name:44s} {self_ms:12.3f} {shown:>10s}")
    return "\n".join(lines) + "\n"
