"""Lint with the standard library only: no module of the package, of
`scripts/` or of `tests/` imports a name it never uses.

A name counts as used where the module reads it, where a string
annotation names it, or where `__all__` lists it.  `__future__` imports
are directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "mdpv").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            found = [node.returns] + [x.annotation for x in args if x]
        elif isinstance(node, ast.AnnAssign):
            found = [node.annotation]
        else:
            continue
        yield from (f for f in found if f is not None)


def unused_imports(source: str) -> list[str]:
    """Names the source imports and never uses."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                text = ast.parse(c.value, mode="eval")
                used |= {n.id for n in ast.walk(text)
                         if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [n for n in imported if n not in used]


def test_the_lint_sees_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os, os.path as osp\n"
           "from math import cos, sin as s, tan\n"
           "__all__ = ['tan']\n"
           "def f(x: 'Sequence[int]') -> None:\n"
           "    return s(x)\n")
    assert unused_imports(src) == ["os", "osp", "cos"]
    assert unused_imports("from typing import Sequence\n"
                          "def f(x: 'Sequence[int]'): pass\n") == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
