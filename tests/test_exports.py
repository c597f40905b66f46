"""Every name a ``repro`` module lists in ``__all__`` exists in it, and
every name a ``repro`` module, test, benchmark, example or script imports
is used by it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro


def test_every_all_entry_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1
    assert stale == []


def unused_imports(source: str) -> list:
    """Names ``source`` imports but never reads: not as a name, and not in a
    string that parses as an expression (a quoted annotation or an
    ``__all__`` entry)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
        used.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = (
        "from typing import TYPE_CHECKING, Dict, List\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    from .a import A, B\n"
        "__all__ = ['List']\n"
        "x: 'Dict[str, A]' = {}\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "B")]


def test_no_module_imports_a_name_it_does_not_use():
    """Covers the package and the repository's tests, benchmarks, examples
    and scripts.  ``__init__.py`` files are exempt: their imports are
    re-exports."""
    root = Path(__file__).resolve().parents[1]
    trees = [Path(repro.__file__).parent] + [
        root / name for name in ("tests", "benchmarks", "examples", "scripts")
    ]
    unused = [
        f"{path.relative_to(root)}:{line} {name}"
        for tree in trees
        for path in sorted(tree.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert all(tree.is_dir() for tree in trees)
    assert unused == []
