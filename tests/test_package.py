"""Package surface: every exported name resolves, and so does every boundary
the benchmark's span tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import semtok

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_all_names_resolve():
    assert [name for name in semtok.__all__ if not hasattr(semtok, name)] == []


def test_traced_benchmark_boundaries_resolve():
    # loaded by path: bench/ is not a package
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, module_name, path in spans.BOUNDARIES:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{name} ({module_name}.{path})")
    assert missing == []
