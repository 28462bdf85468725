"""Every import under src/s2flow/, scripts/ and tests/ is used, and every
private module-level name under src/s2flow/ is read somewhere in the package.

Deleting code leaves imports and helpers behind; this catches them with the
standard library's ast alone.  For imports, package __init__ files (which
re-export), __future__ imports and statements marked `# noqa: F401` are
exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/s2flow", "scripts", "tests")
               for p in (ROOT / d).glob("*.py")
               if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/s2flow").glob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_sees_unused_and_exempt_imports():
    source = ("import os\nimport json.decoder\nfrom math import pi, tau\n"
              "from sys import path  # noqa: F401\nprint(pi, json.decoder)\n")
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_names(sources):
    """(module, name) of every module-level private def, class or assignment
    target whose name no module in `sources` ({module: source}) reads.

    A read is a loaded name or an attribute of that name anywhere in the
    sources, so the check goes by name alone; dunders are exempt.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            dead += [(module, name) for name in names if name.startswith("_")
                     and not name.startswith("__") and name not in read]
    return sorted(dead)


def test_the_check_sees_dead_private_names():
    sources = {
        "a": ("_used = 1\n_dead, shown = 2, 3\n__all__ = []\n"
              "def _helper():\n    return _used\nclass _Gone:\n    pass\n"),
        "b": "from .a import _helper\nx = a._attr\n_attr: int = 3\nprint(_helper())\n",
    }
    assert dead_private_names(sources) == [("a", "_Gone"), ("a", "_dead")]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert dead_private_names(sources) == []
