"""Every top-level function and class of the package, and every public
method of its classes, is reached from the package or the bench.

A name only the tests reach is a test oracle: it belongs in
``tests/oracles.py``, not in the package a runner imports.  References are
read from the syntax trees of ``src/dyadicweights/*.py`` and
``bench/*.py``: names, attributes, import aliases, and the parts of a
string that is a dotted name, as the bench's table of timed functions
spells them (``"GridWindow.cubes"``).  Names resolve by scope: a name that
a function, lambda or comprehension binds itself (a parameter, an
assignment, an import, a nested definition) is its own and refers to no
definition of the package.  A module-level function is reached through an
attribute only as ``<package module>.<name>`` (``grid.children``, not
``path.parent``); a class or method through any attribute of its name.  A
reference inside a definition's own body (recursion) does not count for it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "dyadicweights").glob("*.py")) + sorted(
    (ROOT / "bench").glob("*.py")
)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def bound_names(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds in its own
    scope, nested scopes apart, less those it declares global or nonlocal."""
    bound, declared = set(), set()
    args = getattr(scope, "args", None)
    if args is not None:
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        bound.update(a.arg for a in every if a is not None)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            bound.add(sub.id)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared.update(sub.names)
        elif isinstance(sub, ast.alias):
            bound.add((sub.asname or sub.name).partition(".")[0])
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        if isinstance(sub, DEFS):
            bound.add(sub.name)
        if not isinstance(sub, SCOPES + DEFS):
            stack.extend(ast.iter_child_nodes(sub))
    return bound - declared


def references(node: ast.AST, modules=frozenset()) -> Counter:
    """How often each name is referenced under ``node``: a bare name as
    itself, an attribute as ``.name``, and an attribute of a module in
    ``modules`` also as ``module.name``."""
    refs: Counter = Counter()

    def visit(sub: ast.AST, local: frozenset):
        if isinstance(sub, SCOPES):
            local = local | bound_names(sub)
        if isinstance(sub, ast.Name) and sub.id not in local:
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs["." + sub.attr] += 1
            owner = getattr(sub.value, "id", getattr(sub.value, "attr", None))
            if owner in modules:
                refs[f"{owner}.{sub.attr}"] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
        for child in ast.iter_child_nodes(sub):
            visit(child, local)

    visit(node, frozenset())
    return refs


def definitions(tree: ast.Module, module: str):
    """The top-level functions and classes of a module, and the public
    methods of its classes, as (qualified name, def node, reference keys)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node, (node.name, "." + node.name)
            for sub in node.body:
                if isinstance(sub, DEFS) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, (sub.name, "." + sub.name)
        elif isinstance(node, DEFS):
            yield node.name, node, (node.name, f"{module}.{node.name}")


def unreferenced(paths) -> list[str]:
    package = [p for p in paths if p.parent.name == "dyadicweights"]
    modules = frozenset(p.stem for p in package)
    trees = {p: ast.parse(p.read_text()) for p in paths}
    total = sum((references(t, modules) for t in trees.values()), Counter())
    out = []
    for p in package:
        for qualified, node, keys in definitions(trees[p], p.stem):
            own = references(node, modules)
            if all(total[k] == own[k] for k in keys):
                out.append(f"{p.name}:{qualified}")
    return out


def test_every_package_definition_is_reached_outside_the_tests():
    assert unreferenced(SOURCES) == []


def test_unreferenced_finds_a_name_only_its_own_body_uses(tmp_path):
    package = tmp_path / "dyadicweights"
    package.mkdir()
    (package / "mod.py").write_text(
        "import os.path as osp\n"
        "def used():\n"
        "    return osp\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Box:\n"
        "    def read(self):\n"
        "        return used()\n"
        "    def _private(self):\n"
        "        return 0\n"
        "    def unread(self):\n"
        "        return 1\n"
        "def named():\n"
        "    return 2\n"
        "Box().read()\n"
        "TIMED = ('mod.named', 'not a name')\n"
    )
    assert unreferenced([package / "mod.py"]) == ["mod.py:recursive", "mod.py:Box.unread"]


def test_unreferenced_resolves_local_names_and_module_attributes(tmp_path):
    # a parameter, a local, a comprehension variable or a foreign attribute
    # of the same name does not reach a definition; mod.qualified does
    package = tmp_path / "dyadicweights"
    package.mkdir()
    (package / "mod.py").write_text(
        "import pathlib\n"
        "def parent():\n"
        "    return 0\n"
        "def count():\n"
        "    return 1\n"
        "def qualified():\n"
        "    return 2\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return 3\n"
        "def user(count):\n"
        "    parent = pathlib.Path('.').parent\n"
        "    size = len([count for count in range(3)])\n"
        "    return parent, size, count, mod.qualified, Box\n"
        "user(0)\n"
    )
    assert unreferenced([package / "mod.py"]) == ["mod.py:parent", "mod.py:count", "mod.py:Box.size"]
