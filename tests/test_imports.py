"""No module of the package imports a name it never uses, and every module
of the package, the benchmark and the tests parses as Python 3.10, the
oldest version CI runs."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planlens"

# Imports kept only because perfbench/tracing.py wraps them by name in
# these modules; the next change to the benchmark can empty this list.
BENCHMARK_SEAMS = {
    "agents.py": {"hash_uniform"},
    "pipeline.py": {"hash_uniform"},
    "cli.py": {"derive_seed"},
}


def unused_imports(source: str) -> set[str]:
    """Names bound by an import that the module never reads, quoted
    annotations included."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None
    ]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    return imported - used


MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    found = unused_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert found == BENCHMARK_SEAMS.get(module, set())


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_parses_as_python_3_10(module):
    ast.parse((PACKAGE / module).read_text(encoding="utf-8"), feature_version=(3, 10))


OTHER_SOURCES = sorted(p.relative_to(ROOT).as_posix() for d in ("perfbench", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", OTHER_SOURCES)
def test_benchmark_and_tests_parse_as_python_3_10(path):
    ast.parse((ROOT / path).read_text(encoding="utf-8"), feature_version=(3, 10))


def test_version_guard_refuses_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_guard_sees_unused_and_quoted_names():
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import Mapping\n"
        "import os.path\n"
        "def f(x: 'Mapping[str, int]') -> None:\n"
        "    return os.path.join(dataclass)\n"
    )
    assert unused_imports(source) == {"field"}
