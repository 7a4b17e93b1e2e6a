"""Every public top-level function, class and method of the package has a
caller: the package (without `__init__.py`), the benchmark harness or
README names it besides its own definition. A name that only tests reach
is kept by a decision, recorded in ALLOWED with its reason, not by drift.
The package root exports exactly what README's library sketch imports."""

import ast
import re
from collections import Counter
from pathlib import Path

import planlens
from conftest import save_trajectory
from planlens.trajectory import ExecutionRecord, Sample, TrajectoryStore

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planlens"

# Public names that only tests reach, each with why it stays.
ALLOWED = {
    "generation_stats": "acceptance criterion 10's oracle for a run's stats",
    "LazySummaryCache.summaries_for": "acceptance criterion 08 reads the lazy summary cache through it",
    "best_sample_reference": "reference selection for gating; direction 8 pending",
    "TrajectoryStore.set_references": "sets the references a checkpoint holds; direction 8 pending",
    "banzhaf_two_player": "acceptance criteria 01-03's closed-form oracle",
    "banzhaf_three_player": "acceptance criterion 01's closed-form oracle",
    "synergy_pair_adjusted": "acceptance criterion 02's closed-form oracle",
    "payoffs_from_two_player_values": "acceptance criterion 03 rebuilds the published table with it",
    "payoffs_from_three_player_values": "acceptance criterion 03 rebuilds the published table with it",
}


def public_definitions(source: str) -> list[str]:
    """The module's public top-level functions and classes, and the public
    methods of its top-level classes, as `name` or `Class.method`."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return names


def unnamed(definitions: list[str], texts: list[str]) -> set[str]:
    """The definitions whose name occurs, as a whole word, in `texts` no more
    often than the definitions themselves spell it. A method counts as named
    if any text uses its name, on any object."""
    words = Counter(word for text in texts for word in re.findall(r"[A-Za-z_]\w*", text))
    spelled = {name: name.rpartition(".")[2] for name in definitions}
    defined = Counter(spelled.values())
    return {name for name, word in spelled.items() if words[word] <= defined[word]}


def test_every_public_name_has_a_caller():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    searched = modules + sorted((ROOT / "perfbench").rglob("*.py")) + [ROOT / "README.md"]
    texts = [path.read_text(encoding="utf-8") for path in searched]
    found = unnamed([name for path in modules for name in public_definitions(path.read_text(encoding="utf-8"))], texts)
    assert found - ALLOWED.keys() == set(), "give each a caller, move it into tests/ or delete it"
    assert ALLOWED.keys() - found == set(), "these have a caller now, or are gone: drop them from ALLOWED"


def test_check_sees_a_name_only_its_definition_spells():
    source = (
        "class Store:\n"
        "    def save(self):\n"
        "        return self._load()\n"
        "    def load(self):\n"
        "        pass\n"
        "    def _load(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Store().load()\n"
        "def _private():\n"
        "    pass\n"
    )
    definitions = public_definitions(source)
    assert definitions == ["Store", "Store.save", "Store.load", "helper"]
    assert unnamed(definitions, [source]) == {"Store.save", "helper"}
    assert unnamed(definitions, [source, "call helper() and save()"]) == set()


def test_package_root_exports_what_the_readme_sketch_imports(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    imported = [
        alias.name for node in ast.parse(sketch).body
        if isinstance(node, ast.ImportFrom) and node.module == "planlens" for alias in node.names
    ]
    assert sorted(planlens.__all__) == sorted(imported + ["__version__"])
    store = TrajectoryStore("readme")
    for g in range(4):
        for i in range(3):
            executions = (ExecutionRecord(compiled=(g + i) % 2 == 0),)
            store.append(Sample(f"g{g}i{i}", g, f"kernel {g}/{i}", executions=executions))
    monkeypatch.chdir(tmp_path)
    save_trajectory(store, "traj.ndjson")
    exec(compile(sketch, "README.md", "exec"), {})
    phi = ast.literal_eval(capsys.readouterr().out)
    assert sorted(phi) == ["analyzer", "debugger", "profiler"]


def test_version_is_the_one_pyproject_declares():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^\[project\]\n(?:[^\[].*\n)*?version = "([^"]+)"$', pyproject, re.M)[1] == planlens.__version__
