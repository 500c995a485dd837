"""Package-wide checks: no assert statements in library code, and every name
the benchmark's tracer wraps still resolves."""

import ast
import importlib
import importlib.util
from pathlib import Path

import lmcdist

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(lmcdist.__file__).parent.glob("*.py"))


def test_library_code_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_bench_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"lmcdist.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"lmcdist.{module_name}.{attr}")
    assert tracing.TARGETS
    assert missing == []
