"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` of the checkout this
file sits in. Inputs come from `--seed` only. The run sets up its inputs
several times (median set-up time), then repeats the workload's operation for
`--seconds` seconds and reports medians over the operations after the first,
which runs cold. The operations and the final checks run in a child process
forked after set-up, so that `peak_rss_mb` is their high-water mark and not
set-up's.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced operations, and prints the per-layer metrics plus the tracing
overhead between the two kinds. The last stdout line is always the result
object; the line before it records the environment. Result, trace and
per-layer table files go to `.bench_work/results/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
WARMUP_OPS = 1  # checked, but left out of every timing: the first operation runs cold
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_runtime():
    """(config string, threads in effect) read from the loaded OpenBLAS, or
    (None, -1) when it cannot be found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"), ("openblas_", "64_")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return None, -1


def environment(workload, seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _blas_runtime()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": config,
        "blas_threads": threads,
        "nproc": NPROC,
        "machine": platform.machine(),
    }


def tree_digest(root):
    """SHA-256 over the relative path and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.ops = []  # dicts: index, seconds, result, problems, traced
        self.expected_digest = None
        self.failures = []

    def run_op(self, traced=False):
        w = self.workload
        index = len(self.ops)
        shutil.rmtree(w.work / "op", ignore_errors=True)
        if traced:
            self.tracer.run_id = index
        t0 = time.perf_counter()
        try:
            result = w.op()
            seconds = time.perf_counter() - t0
            if traced:
                self.tracer.run_id = -1  # checks are not part of the operation
            problems = w.check(result)
            digest = tree_digest(result.out_dir)
            if self.expected_digest is None:
                self.expected_digest = digest
            elif digest != self.expected_digest:
                problems.append("output differs from the first operation's (or the reference) byte for byte")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            seconds, result, problems = time.perf_counter() - t0, None, ["operation raised"]
        if traced:
            self.tracer.run_id = -1
        self.ops.append({"index": index, "seconds": seconds, "result": result, "problems": problems, "traced": traced})
        if problems:
            self.failures.append((f"op{index}", problems))

    def ok_ops(self, traced):
        """Timed operations of one kind that passed their checks."""
        return [o for o in self.ops[WARMUP_OPS:] if o["traced"] == traced and not o["problems"]]


def set_up(workload, root):
    """Set the workload up SETUP_REPEATS times from scratch; returns the
    set-up times and whether every repeat wrote the same bytes."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        workload.setup(root)
        times.append(time.perf_counter() - t0)
        digests.add(tree_digest(root))
    return times, len(digests) == 1


def pass_rates(ops, labels):
    """Median scenes/s of each labelled sub-call over the operations."""
    return {label: _median([o["result"].pass_rates[label] for o in ops]) for label in labels if ops and label in ops[0]["result"].pass_rates}


def per_layer_metrics(tracer, runner, labels):
    import spans

    traced, untraced = runner.ok_ops(traced=True), runner.ok_ops(traced=False)
    metrics, table = spans.summarize(tracer, [o["index"] for o in traced])
    overhead = 0.0
    if traced and untraced:
        overhead = 100.0 * (_median([o["seconds"] for o in traced]) / _median([o["seconds"] for o in untraced]) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    rates = pass_rates(untraced, labels)
    for label in labels:
        metrics[f"eval_scenes_per_s.{label}"] = (rates.get(label, 0.0), "1/s")
    quality = {}
    for o in untraced + traced:
        quality.update(o["result"].quality)
    metrics["train.stage1_bag_loss"] = (quality.get("stage1_bag_loss", 0.0), "nats")
    metrics["train.eval_accuracy"] = (quality.get("eval_accuracy", 0.0), "ratio")
    header = (
        f"tracing overhead {overhead:.1f}% (median traced vs untraced operation time)\n"
        "tensor.out_bytes is computed from op output array sizes, not measured.\n"
    )
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, header + spans.format_table(table, len(traced))


def rss_mb():
    """Resident set size of this process now, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def release_free_heap():
    """Hand the C heap's free pages back to the OS (glibc only), so that the
    resident memory left is what is live."""
    import ctypes
    import gc

    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def in_child(fn):
    """Run fn() in a forked child and return (its value, the child's peak
    RSS in MB). The child starts with the parent's resident memory, so the
    peak covers the state set-up left live plus all the child allocates;
    set-up's own transient peak stays in the parent."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(fn(), fh)
            status = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"the measuring child process failed (wait status {status})")
    return pickle.loads(payload), usage.ru_maxrss / 1024.0


def measure(args, workload, stem):
    """The timed part of a run: repeat the operation for --seconds, then run
    the workload's final checks. Returns what the parent reports."""
    import spans
    import workloads as W

    release_free_heap()
    rss_at_start = rss_mb()
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    if workload.reference is not None:
        runner.expected_digest = tree_digest(workload.reference)
    # A traced run alternates untraced and traced operations, so that slow
    # drift of the machine's speed cancels out of the tracing overhead.
    deadline = time.perf_counter() + args.seconds
    min_ops = WARMUP_OPS + (2 if args.trace else 1)
    traced = False
    while True:
        if traced:
            tracer.install(extra_modules=[W])
            try:
                runner.run_op(traced=True)
            finally:
                tracer.uninstall()
        else:
            runner.run_op()
        traced = bool(args.trace) and not traced
        if time.perf_counter() >= deadline and len(runner.ops) >= min_ops:
            break
    try:
        checks = workload.final_checks()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checks = [("final_checks", ["the final checks raised"])]

    layer_metrics = None
    if args.trace:
        layer_metrics, table = per_layer_metrics(tracer, runner, W.EVAL_PASSES)
        tracer.write(f"{stem}.trace.json")
        Path(f"{stem}.layers.txt").write_text(f"{args.workload} seed {args.seed}: {table}")
    untraced = runner.ok_ops(traced=False)
    return {
        "rss_at_start_mb": rss_at_start,
        "op_seconds": [o["seconds"] for o in runner.ops],
        "ops_failed": sum(1 for o in runner.ops if o["problems"]),
        "failures": runner.failures,
        "checks": checks,
        "scenes_per_s": _median([o["result"].scenes / o["seconds"] for o in untraced]),
        "eval_scenes_per_s": pass_rates(untraced, W.EVAL_PASSES),
        "layer_metrics": layer_metrics,
    }


def run(args):
    import workloads as W

    base = ROOT / ".bench_work"
    (base / "results").mkdir(parents=True, exist_ok=True)
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    stem = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args.workload, args.seed)
    try:
        workload = W.WORKLOADS[args.workload](W.SCALES["tiny" if args.tiny else "default"], args.seed, work)
        setup_times, setup_same = set_up(workload, work / "setup")
        setup_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        m, peak_rss = in_child(lambda: measure(args, workload, stem))

        checks = [("setup_reproducible", [] if setup_same else ["set-up outputs differ between repeats"])]
        checks += m["checks"]
        failures = m["failures"] + [(name, problems) for name, problems in checks if problems]
        attempted = len(m["op_seconds"]) + len(checks)
        failed = m["ops_failed"] + sum(1 for _, p in checks if p)

        if args.trace:
            metrics = m["layer_metrics"]
        else:
            metrics = {
                "scenes_per_s": {"value": m["scenes_per_s"], "unit": "1/s"},
                "setup_s": {"value": _median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            }
        for name, problems in failures:
            print(f"check failed: {name}: {'; '.join(problems)}", file=sys.stderr)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        record = {
            "env": env,
            "result": result,
            "op_seconds": m["op_seconds"],
            "setup_seconds": setup_times,
            "eval_scenes_per_s": m["eval_scenes_per_s"],
            "rss_mb": {"setup_peak": setup_peak_mb, "ops_start": m["rss_at_start_mb"], "ops_peak": peak_rss},
            "failures": failures,
        }
        Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs for the smoke test; not a measurement")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # BLAS threads are capped at the cores this process may use; set here,
    # before numpy loads, so only this process is affected.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    if not (ROOT / "src" / "semtok" / "__init__.py").is_file():
        print(f"error: no semtok package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
