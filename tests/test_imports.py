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


# Standard-library names that Python 3.10 lacks, so that only CI's 3.10 leg
# would fail on them: by module, "" for builtins. Held as text, and the regex
# atomic group built from two pieces, so that this file names none of them.
NEWER_MODULES = {"tomllib"}
NEWER_NAMES = {
    "enum": {"StrEnum"},
    "typing": {"Self", "LiteralString", "Never", "assert_never"},
    "datetime": {"UTC"},
    "hashlib": {"file_digest"},
    "contextlib": {"chdir"},
    "asyncio": {"TaskGroup", "timeout"},
    "": {"ExceptionGroup", "BaseExceptionGroup"},
}
NEWER_METHODS = {"add_note"}
ATOMIC_GROUP = "(?" + ">"


def newer_stdlib_uses(source: str) -> list[str]:
    """Each use in `source` of a module, name, method or regex syntax that
    Python 3.11 added, in `ast.walk` order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in NEWER_MODULES]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in NEWER_MODULES:
                found.append(module)
            found += [f"{module}.{alias.name}" for alias in node.names if alias.name in NEWER_NAMES.get(module, ())]
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if node.attr in NEWER_METHODS or node.attr in NEWER_NAMES.get(owner, ()):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id in NEWER_NAMES[""]:
            found.append(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and ATOMIC_GROUP in node.value:
            found.append(repr(node.value))
    return found


def test_no_python_3_11_stdlib_names():
    sources = sorted(PACKAGE.glob("*.py")) + [ROOT / path for path in OTHER_SOURCES]
    found = {path.relative_to(ROOT).as_posix(): newer_stdlib_uses(path.read_text(encoding="utf-8")) for path in sources}
    assert {path: uses for path, uses in found.items() if uses} == {}


def test_stdlib_guard_sees_each_newer_name():
    planted = [
        "import " + "tomllib",
        "from " + "tomllib import loads",
        "from enum import " + "StrEnum",
        "import typing\nx: typing." + "Self",
        "import datetime\ndatetime." + "UTC",
        "import asyncio\nasyncio." + "timeout(1)",
        "raise " + "ExceptionGroup('x', [])",
        "err." + "add_note('x')",
        "re.compile(" + repr(ATOMIC_GROUP + "a)") + ")",
    ]
    assert [len(newer_stdlib_uses(source)) for source in planted] == [1] * len(planted)
    assert newer_stdlib_uses("from typing import Mapping\nimport datetime\ndatetime.timezone.utc\n'(?:a)'") == []
