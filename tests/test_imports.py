"""Every module of the package uses each name it imports, and every
private name it defines.

Only the package's `__init__.py` is exempt from the import check: it
imports names to re-export them.  An imported name counts as used when the
module's syntax tree loads it anywhere (an attribute base such as
`functools.cache` included) or lists it in `__all__`.  A private name (a
leading underscore, not a dunder) defined at module or class level counts
as used when some module of the package loads it or reads it as an
attribute; one that only the tests use belongs in the tests.  The tables
that `functools.cache` keeps are pinned by name, so a new per-conductor
table, or a per-query memo, is a reviewed change.  Only the interval
enclosure and the sympy bridge read an element's Fraction view `coeffs`,
so printing, keys, hashes and orders stay on the int numerators."""

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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _defined(body) -> list:
    """The names that a module or class body binds at its own level."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.extend(_defined(node.body))
    return names


def unused_private_names(sources: dict) -> list:
    """(module, name) for every private name that a module of sources
    (module name -> source) defines at module or class level and that no
    module of sources loads or reads as an attribute, sorted."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                used.add(node.attr)
    return sorted((module, name) for module, tree in trees.items()
                  for name in _defined(tree.body)
                  if _is_private(name) and name not in used)


def test_unused_private_names_are_found():
    assert unused_private_names({
        "a": "_LIMIT = 3\n"
             "def _helper(x):\n"
             "    return x\n"
             "def _orphan():\n"
             "    def _nested():\n"
             "        pass\n"
             "class C:\n"
             "    _slot = 1\n"
             "    def _read(self):\n"
             "        return self._slot\n"
             "    def _unread(self):\n"
             "        pass\n"
             "    def __eq__(self, other):\n"
             "        pass\n",
        "b": "from .a import _helper, _LIMIT\n"
             "x = _helper(_LIMIT)\n"
             "C()._read()\n"}) == [("a", "_orphan"), ("a", "_unread")]


def test_no_module_defines_a_private_name_that_src_never_uses():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sources
    assert unused_private_names(sources) == []


def cached_functions(source: str) -> list:
    """The names of the functions that source decorates with `cache` or
    `lru_cache` (called or not, bare or as `functools.` attributes),
    sorted."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call):
                    dec = dec.func
                name = dec.attr if isinstance(dec, ast.Attribute) \
                    else getattr(dec, "id", None)
                if name in ("cache", "lru_cache"):
                    names.append(node.name)
    return sorted(names)


def test_cached_functions_are_found():
    assert cached_functions(
        "import functools\n"
        "@functools.cache\n"
        "def a(n):\n"
        "    return n\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def b(n):\n"
        "    return n\n"
        "@cache\n"
        "def c(n):\n"
        "    return n\n"
        "@staticmethod\n"
        "def d(n):\n"
        "    return n\n") == ["a", "b", "c"]


# the library's tables: the CLI parser, and tables keyed by a conductor or
# a prime, never by a query's values
CACHED = {
    "cli.py": ["build_parser"],
    "cyclotomic.py": ["_norm_chain", "_powers_of_zeta", "_reduction_table",
                      "_split_prime", "_sqrt_prime", "_sympy_field",
                      "cyclotomic_polynomial", "units"],
}


def test_src_keeps_exactly_the_pinned_cache_tables():
    cached = {p.name: cached_functions(p.read_text())
              for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in cached.items() if names} == CACHED


def coeffs_reads(source: str) -> list:
    """(function, callee) for each read of an attribute `coeffs` in
    source: the innermost function around it, and the function of the call
    that takes it as a positional argument (None when there is none)."""
    reads = []

    def visit(node, function, callee):
        if isinstance(node, ast.Attribute) and node.attr == "coeffs" \
                and isinstance(node.ctx, ast.Load):
            reads.append((function, callee))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            called = None
            if isinstance(node, ast.Call) and child in node.args:
                called = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
            visit(child, function, called)

    visit(ast.parse(source), None, None)
    return reads


def test_coeffs_reads_are_found():
    assert coeffs_reads(
        "def f(u):\n"
        "    return g(u.coeffs), [c for c in u.coeffs]\n"
        "class C:\n"
        "    def coeffs(self):\n"
        "        return self.num\n"
        "    def h(self, coeffs):\n"
        "        self.coeffs = coeffs\n"
        "        return self.x.coeffs[0]\n") == [
            ("f", "g"), ("f", None), ("h", None)]


def test_only_enclosures_and_sympy_read_the_fraction_coordinates():
    # printing, keys, hashes and orders read the int numerators; the
    # Fraction view `coeffs` feeds the interval enclosure and the sympy
    # factorization only
    reads = {p.name: coeffs_reads(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {
        "cyclotomic.py": [("_enclose", "enumerate"),
                          ("kth_roots", "_sympy_roots")]}
