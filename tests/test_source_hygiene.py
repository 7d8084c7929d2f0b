"""Source hygiene: no module of otda imports a name it never uses, no
module-level private function or class goes unnamed by the rest of the
package, no method or property of a class goes unnamed by the package,
perfbench/ or tools/, and no parameter default goes unpassed by them. Each
is code that a removal left behind, or a choice that no caller makes.

`__init__` is left out: its imports are the package's public names.
"""

import ast
import importlib
from collections import defaultdict
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


def _passes(call: ast.Call, position, name: str) -> bool:
    """Whether call passes the parameter name at position (None when it is
    keyword-only). A ** mapping passes every keyword, and a starred argument
    every position from its own on."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    return position is not None and (
        position < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args)
    )


def test_every_default_is_passed():
    """Each parameter with a default, of a function or method in otda, is
    passed by keyword or by position in some call in the package, perfbench/
    or tools/; tests do not count as callers. A call matches by the called
    name (a class's name for its __init__), so a parameter passed to another
    function of the same name passes on the name alone. A leading self or cls
    is bound by the call, not passed."""
    calls = defaultdict(list)
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls[getattr(node.func, "id", None) or node.func.attr].append(node)
    unpassed = []
    for path in MODULES:
        tree = _tree(path)
        constructors = {
            id(member): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for member in node.body if isinstance(member, ast.FunctionDef) and member.name == "__init__"
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
            first_default = len(positional) - len(fn.args.defaults)
            defaulted = [(i - bound, arg.arg) for i, arg in enumerate(positional) if i >= first_default]
            defaulted += [
                (None, arg.arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None
            ]
            name = constructors.get(id(fn), fn.name)
            unpassed += [
                f"{path.stem}.{fn.name}({arg})" for position, arg in defaulted
                if not any(_passes(call, position, arg) for call in calls[name])
            ]
    assert unpassed == []
