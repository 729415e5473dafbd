"""Static checks over the package source.

The package is standard-library only and exact: every absolute import names
the package itself or a standard-library module, and no float literal or
``float(`` call appears anywhere in ``src/``.  Value types are frozen
dataclasses, so no class hand-writes ``__setattr__``.  Every function the
benchmark's tracer wraps still exists under the name it uses.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "deligne_simpson"


def source_trees():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    for path in files:
        yield path.relative_to(SRC), ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_absolute_imports_are_package_or_stdlib():
    allowed = set(sys.stdlib_module_names) | {PACKAGE, "__future__"}
    offenders = []
    for path, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert not offenders


def test_no_float_literals_or_float_calls():
    offenders = []
    for path, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offenders.append(f"{path}:{node.lineno} literal {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                offenders.append(f"{path}:{node.lineno} float(...)")
    assert not offenders


def test_no_class_defines_setattr():
    offenders = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__setattr__" for item in node.body)
    ]
    assert not offenders


def test_every_traced_layer_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for entries in tracing.LAYERS.values():
        for module_name, attr in entries:
            owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{attr}")
    assert not missing
