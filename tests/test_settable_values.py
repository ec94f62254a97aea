"""The number of values a caller can set does not grow.

A settable value is a parameter with a default, anywhere in the package, or a
defaulted field of one of the config dataclasses below.  An option that no
caller sets is a constant; a change that adds one raises this count and must
say why.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "dyadicweights"
CONFIG_CLASSES = {"OscillationConfig", "DiffQuotConfig", "Quadrature", "GridWindow"}
SETTABLE_CEILING = 44


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
            count += sum(
                isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body
            )
    return count


def test_settable_values_do_not_grow():
    per_file = {
        p.name: settable_values(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
    }
    assert sum(per_file.values()) <= SETTABLE_CEILING, per_file


def test_settable_values_counts_each_kind():
    source = (
        "def f(a, b=1, *, c=2, d):\n"
        "    return lambda x=0: x\n"
        "class GridWindow:\n"
        "    lo: int\n"
        "    hi: int = 3\n"
        "class Other:\n"
        "    e: int = 4\n"
    )
    # b, c, x and GridWindow.hi; a field of any other class is not counted
    assert settable_values(source) == 4
