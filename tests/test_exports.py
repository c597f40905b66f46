"""Every name a ``repro`` module lists in ``__all__`` exists in it, every
name a ``repro`` module, test, benchmark, example or script imports is
used by it, and every def of a module held to strict typing is fully
annotated."""

import ast
import importlib
import pkgutil
import re
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


def unannotated_defs(source: str) -> list:
    """``(line, name)`` of every def in ``source``, nested ones included,
    that leaves a parameter (bar a leading ``self`` / ``cls``) or its
    return unannotated: what mypy's ``disallow_incomplete_defs`` and
    ``disallow_untyped_defs`` reject."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        params = positional + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        if positional and positional[0].arg in ("self", "cls"):
            params = params[1:]
        if node.returns is None or any(p.annotation is None for p in params):
            found.append((node.lineno, node.name))
    return sorted(found)


def test_unannotated_defs_are_found():
    source = (
        "class A:\n"
        "    def ok(self, x: int) -> None:\n"
        "        def inner(y):\n"
        "            return y\n"
        "    def no_return(self, x: int):\n"
        "        pass\n"
        "def kw(*args: int, **kwargs) -> None:\n"
        "    pass\n"
        "def typed(cls, *, k: str = '') -> str:\n"
        "    return k\n"
    )
    assert unannotated_defs(source) == [(3, "inner"), (5, "no_return"), (7, "kw")]


def test_strict_modules_annotate_every_def():
    """CI's ``typecheck`` job holds the modules ``pyproject.toml``'s strict
    mypy override names to complete annotations.  The module list is read
    with a regex (CI's ``tests`` job runs Python 3.10, which has no
    ``tomllib``), and every def of those modules must annotate every
    parameter and its return."""
    root = Path(__file__).resolve().parents[1]
    config = (root / "pyproject.toml").read_text()
    block = re.search(
        r"\[\[tool\.mypy\.overrides\]\][^\[]*?module\s*=\s*\[(.*?)\]"
        r"(?:(?!\[\[).)*?disallow_incomplete_defs\s*=\s*true",
        config, re.S,
    )
    assert block is not None
    src = root / "src"
    paths = []
    for module in re.findall(r'"(repro[^"]*)"', block.group(1)):
        base = src.joinpath(*module.rstrip(".*").split("."))
        paths += sorted(base.rglob("*.py")) if module.endswith(".*") else [
            base.with_suffix(".py")
        ]
    assert len(paths) > 7 and all(path.is_file() for path in paths)
    incomplete = [
        f"{path.relative_to(root)}:{line} {name}"
        for path in paths
        for line, name in unannotated_defs(path.read_text())
    ]
    assert incomplete == []
