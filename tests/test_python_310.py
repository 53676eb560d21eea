"""The package declares ``requires-python >= 3.10``: every module of the
package and of the tests parses as Python 3.10 source, and no regular
expression of the package uses a possessive quantifier or an atomic group,
which ``re`` has only had since 3.11 (on 3.10, compiling one raises
``re.error`` at import)."""

import ast
import importlib
import re
import sys
from pathlib import Path

try:
    from re import _parser
except ImportError:  # Python 3.10
    import sre_parse as _parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "grappa"
MODULES = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
NEWER_THAN_310 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def test_every_module_parses_as_python_310():
    refused = {}
    for path in MODULES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path),
                      feature_version=(3, 10))
        except SyntaxError as err:
            refused[path.name] = f"line {err.lineno}: {err.msg}"
    assert len(MODULES) > 20 and refused == {}


def opcodes(parsed):
    """The name of every opcode in a parsed pattern, nested ones included."""
    for op, arg in parsed:
        yield str(op)
        stack = [arg]
        while stack:
            item = stack.pop()
            if isinstance(item, _parser.SubPattern):
                yield from opcodes(item)
            elif isinstance(item, (tuple, list)):
                stack.extend(item)


def newer_syntax(pattern: str, flags: int = 0) -> set[str]:
    return set(opcodes(_parser.parse(pattern, flags))) & NEWER_THAN_310


def package_patterns():
    """Every pattern of the package: each compiled one a module holds, and
    each string literal given to an ``re`` function in its source."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"grappa.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                yield f"{path.stem}.{name}", value.pattern, value.flags
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and node.args \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "re" \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                yield f"{path.stem}:{node.lineno}", node.args[0].value, 0


def test_no_pattern_uses_syntax_newer_than_python_310():
    if sys.version_info >= (3, 11):  # 3.10 cannot parse these at all
        assert newer_syntax(r"x|(a[bc]*+)") == {"POSSESSIVE_REPEAT"}
        assert newer_syntax(r"(?:x|(?>ab))?") == {"ATOMIC_GROUP"}
        assert newer_syntax(r"(?=a{2,3}+)") == {"POSSESSIVE_REPEAT"}
    assert newer_syntax(r"(?:a*|b+?)(?=c)") == set()
    found = list(package_patterns())
    assert len(found) >= 3  # smiles' token and bracket patterns, dataio's
    assert {name: sorted(newer_syntax(pattern, flags))
            for name, pattern, flags in found
            if newer_syntax(pattern, flags)} == {}
