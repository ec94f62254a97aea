"""Every top-level function and class of the package, and every public
method of its classes, is reached from the package or the bench.

A name only the tests reach is a test oracle: it belongs in
``tests/oracles.py``, not in the package a runner imports.  References are
read from the syntax trees of ``src/dyadicweights/*.py`` and
``bench/*.py``: names, attributes, import aliases, and the parts of a
string that is a dotted name, as the bench's table of timed functions
spells them (``"GridWindow.cubes"``).  A reference inside a definition's
own body (recursion) does not count for it.
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


def references(node: ast.AST) -> Counter:
    """How often each name is referenced under ``node``."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
    return refs


def definitions(tree: ast.Module):
    """The top-level functions and classes of a module, and the public
    methods of its classes, as (qualified name, name, def node)."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, DEFS) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def unreferenced(paths) -> list[str]:
    trees = {p: ast.parse(p.read_text()) for p in paths}
    total = sum((references(t) for t in trees.values()), Counter())
    package = [p for p in paths if p.parent.name == "dyadicweights"]
    return [
        f"{p.name}:{qualified}"
        for p in package
        for qualified, name, node in definitions(trees[p])
        if total[name] - references(node)[name] == 0
    ]


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
