"""Every name a module imports is read somewhere in that module.

A deletion that leaves an import behind fails here. A name listed in the
module's ``__all__`` counts as read, since the module exports it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*ROOT.glob("src/btauthsim/*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py")]
)


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(imported) - read - exported(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"adversary.py", "cli.py", "attack_matrix.py", "test_imports.py"} <= names


@pytest.mark.parametrize(
    "source,unread",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb = 1\nb\n", ["c"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n    return json\n", []),
    ],
)
def test_the_check_itself(source, unread):
    assert unread_imports(source) == unread
