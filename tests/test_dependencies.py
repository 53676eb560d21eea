"""The package depends on nothing beyond the standard library and numpy,
defines nothing in ``tensor`` that no other module of it uses, defines no
public function, class or method that no module names, sums groups
by a weighted ``bincount`` only in ``tensor``, keeps no module-level
``functools`` cache, imports no ``copy``, and loads no ``multiprocessing``
on import."""

import ast
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from grappa import tensor

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


def tensor_imports(path: Path) -> set[str]:
    """Every name a module takes from ``tensor``: by ``from .tensor import``
    or as an attribute of the module ``tensor``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "tensor" \
                and node.level == 1:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) and node.value.id == "tensor":
            names.add(node.attr)
    return names


def test_everything_tensor_defines_has_a_caller():
    defined = {name for name, obj in vars(tensor).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == tensor.__name__}
    assert {"Tensor", "ScatterPlan", "_stage"} <= defined
    used = set().union(*(tensor_imports(path) for path in SRC.glob("*.py")
                         if path.name != "tensor.py"))
    assert sorted(defined - used) == []


CALLER_DIRS = (SRC, SRC.parent.parent / "perfbench", SRC.parent.parent / "demos")


def named(tree: ast.AST) -> Counter:
    """How often each name occurs in a tree: as a ``Name``, as an
    ``Attribute``'s attribute, or as an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def public_definitions(tree: ast.Module):
    """Each public top-level function and class of a module and each public
    method of its classes, as (qualified name, definition node)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def test_every_public_name_has_a_caller():
    """Each public function, class and method of the package is named
    outside its own definition, in the package, the benchmark or a demo."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in CALLER_DIRS for path in sorted(folder.glob("*.py"))}
    uses = sum((named(tree) for tree in trees.values()), Counter())
    unused = [f"{path.stem}.{qualified}"
              for path, tree in trees.items() if path.parent == SRC
              for qualified, node in public_definitions(tree)
              if uses[node.name] <= named(node)[node.name]]
    assert unused == []


def weighted_bincounts(source: str) -> list[int]:
    """Lines of every ``bincount`` call given weights, by keyword or as its
    second argument."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and "bincount" in (getattr(node.func, "attr", None),
                               getattr(node.func, "id", None))
            and (len(node.args) > 1
                 or any(k.arg == "weights" for k in node.keywords))]


def test_only_tensor_sums_groups_by_bincount():
    """Every grouped sum goes through ``tensor.ScatterPlan``; an unweighted
    count, such as ``PredictedPoints.sizes``, stays allowed."""
    assert weighted_bincounts("np.bincount(i, weights=w)\n"
                              "bincount(i, w, 3)\n"
                              "np.bincount(i, minlength=3)\n") == [1, 2]
    found = {path.name: weighted_bincounts(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "tensor.py"}
    assert not {name: lines for name, lines in found.items() if lines}


FUNCTOOLS_CACHES = {"lru_cache", "cache"}


def functools_caches(source: str) -> set[str]:
    """Every ``functools`` cache a module names: by ``from functools
    import`` or as an attribute of the module ``functools``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            names.add(node.attr)
    return names & FUNCTOOLS_CACHES


def test_no_module_keeps_a_functools_cache():
    """A cache lives on the object whose state it depends on (the row memo
    on its model), not in a module-level ``functools`` cache that outlives
    it."""
    assert functools_caches("import functools\n@functools.lru_cache(8)\n"
                            "def f(x): pass\nfrom functools import cache, "
                            "partial") == {"lru_cache", "cache"}
    found = {path.name: sorted(functools_caches(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert not {name: caches for name, caches in found.items() if caches}


def test_no_module_imports_copy():
    """Both configs are frozen and the row memo holds its model's ``arch``
    itself, so no module needs a defensive copy."""
    found = sorted(path.name for path in SRC.glob("*.py")
                   if "copy" in imported_roots(path))
    assert found == []


def test_importing_the_package_loads_no_multiprocessing():
    """Only a parallel grid search needs a process pool; importing grappa
    must not pay for loading ``multiprocessing``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import grappa, sys; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'multiprocessing'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
