"""Every name a qcluster module imports is used by that module."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import qcluster

MODULES = sorted(
    path for path in Path(qcluster.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Imported names that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from .strings import trivial_word, validate_string\n\nvalidate_string(None, None)\n"
    assert unused_imports(source) == [(1, "trivial_word")]
