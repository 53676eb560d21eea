"""The package depends on nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "grappa"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "grappa"}


def imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    outside = {path.name: sorted(imported_roots(path) - ALLOWED)
               for path in modules}
    assert not {name: roots for name, roots in outside.items() if roots}
