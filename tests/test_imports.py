"""Every module of the package uses each name it imports.

Only the package's `__init__.py` is exempt: it imports names to re-export
them.  A name counts as used when the module's syntax tree loads it
anywhere (an attribute base such as `functools.cache` included) or lists
it in `__all__`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pseudoreal"


def unused_imports(source: str) -> list:
    """The names that source imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports(
        "import functools\n"
        "import os.path\n"
        "from .cyclotomic import CycElt, _reduced as r, units\n"
        "from __future__ import annotations\n"
        "__all__ = ['units']\n"
        "def f(x: CycElt):\n"
        "    return os.path.join(x)\n") == ["functools", "r"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
