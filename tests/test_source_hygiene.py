"""Source hygiene: no module of otda imports a name it never uses, no
module-level private function or class goes unnamed by the rest of the
package, and no method or property of a class goes unnamed by the package,
perfbench/ or tools/. Each is code that a removal left behind.

`__init__` is left out: its imports are the package's public names.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "otda"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _named(tree: ast.AST) -> set:
    """Every name the tree reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert sorted(set(imported) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_definition_is_named_again(path):
    named = set().union(*(_named(_tree(p)) for p in SRC.glob("*.py")))
    private = [
        node.name for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert [name for name in private if name not in named] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_method_is_named_again(path):
    """Tests do not count as callers. Dunders and overrides of a base-class
    attribute (the CLI parser's `error`) are called through the base. The
    rule matches by name, so a member named like another object's (numpy's
    `copy` or `shape`) passes on the name alone."""
    named = set().union(*(_named(_tree(p)) for p in CALLERS))
    module = importlib.import_module(f"otda.{path.stem}")
    unnamed = [
        f"{node.name}.{member.name}"
        for node in _tree(path).body if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not (member.name.startswith("__") and member.name.endswith("__"))
        and member.name not in named
        and not any(hasattr(base, member.name) for base in getattr(module, node.name).__mro__[1:])
    ]
    assert unnamed == []
