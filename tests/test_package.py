"""Package surface: every exported name resolves, and so does every boundary
the benchmark's span tracer wraps; every module-level constant has a reader."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import semtok

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


def test_every_module_constant_is_read_by_the_package_or_the_benchmark():
    # a read is a load of the name or an attribute of that name (TR.SHARD_SCENES)
    sources = sorted((ROOT / "src" / "semtok").glob("*.py"))
    assigned = set()
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            assigned |= {t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)}
    read = set()
    for path in sources + sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(assigned - read) == []
