"""Every module-level import under src/ and tests/ is used or re-exported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list:
    """(line, name) for each name a module-level import binds that no
    expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for name, line in bound.items()
            if name not in used and name not in exported]


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from math import gcd, lcm as l, pi\n__all__ = ['pi']\n"
              "def f(x: int) -> int:\n    return l(x, 2)\n")
    assert _unused_imports(source) == [(2, "os"), (3, "gcd")]


def test_no_unused_module_level_imports():
    files = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/**/*.py"))
    assert len(files) > 10
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in files
              for line, name in _unused_imports(path.read_text())]
    assert not unused, "\n".join(unused)
