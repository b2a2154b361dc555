"""Every name a qcluster module imports is used, and every definition is reachable."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
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


def click_importers(sources: dict) -> list:
    """Modules other than cli that import click: the command line is the
    one layer that knows about it."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if module != "cli" and any(name.split(".")[0] == "click" for name in names):
                found.append(module)
                break
    return found


def test_only_the_command_line_imports_click():
    assert click_importers({path.stem: path.read_text() for path in MODULES}) == []


def test_the_check_sees_a_click_import_outside_the_command_line():
    sources = {
        "cli": "import click\n",
        "a": "from click import ClickException\n",
        "b": "import click.testing\n",
        "c": "from .clicks import x\nimport clickhouse\n",
    }
    assert click_importers(sources) == ["a", "b"]


def _names_in(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _is_click_command(node) -> bool:
    return any(
        isinstance(dec, ast.Call)
        and isinstance(dec.func, ast.Attribute)
        and dec.func.attr == "command"
        for dec in node.decorator_list
    )


def orphaned_definitions(sources: dict) -> list:
    """Module-level defs and classes nothing exports, reads or registers.

    ``sources`` maps a module name to its source.  A definition passes
    when its module's __all__ lists it, when a top-level statement other
    than itself in some module names it, or when it is a click command.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    statements = [
        (name, node, _names_in(node)) for name, tree in trees.items() for node in tree.body
    ]
    found = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_click_command(node):
            continue
        referenced = any(
            node.name in names
            for _, other, names in statements
            if other is not node
        )
        exported = any(
            isinstance(other, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in other.targets)
            and node.name in ast.literal_eval(other.value)
            for name, other, _ in statements
            if name == module
        )
        if not (referenced or exported):
            found.append(f"{module}.{node.name}")
    return found


def test_every_definition_is_exported_read_or_a_command():
    package = Path(qcluster.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert orphaned_definitions(sources) == []


def test_the_check_sees_an_orphaned_definition():
    sources = {
        "a": "__all__ = ['kept']\n\ndef kept():\n    return _used()\n\n"
        "def _used():\n    return 1\n\ndef _left_behind():\n    return _left_behind()\n",
        "b": "import click\n\n@main.command()\ndef cmd():\n    pass\n",
    }
    assert orphaned_definitions(sources) == ["a._left_behind"]


def _export_list(tree) -> list:
    """The names a module's top-level __all__ lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _mentions(tree) -> set:
    """Every name a source reads, imports, or spells as a string (as
    monkeypatch.setattr and the bench tracer's targets do)."""
    out = _names_in(tree)
    for sub in ast.walk(tree):
        if isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unread_exports(modules: dict, readers: list) -> list:
    """Exported functions nothing outside their own module names.

    ``modules`` maps a module name to its source; ``readers`` holds the
    sources of the tests and bench files.  A function passes when another
    module or a reader names it.  Exported classes pass: they are the
    types of the values the functions return.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    mentions = {name: _mentions(tree) for name, tree in trees.items()}
    outside = set().union(*(_mentions(ast.parse(source)) for source in readers))
    found = []
    for module, tree in trees.items():
        exported = set(_export_list(tree))
        elsewhere = outside.union(*(names for name, names in mentions.items() if name != module))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported - elsewhere:
                found.append(f"{module}.{node.name}")
    return found


def test_every_exported_function_is_named_outside_its_module():
    root = Path(__file__).resolve().parents[1]
    modules = {path.stem: path.read_text() for path in MODULES}
    readers = [
        path.read_text()
        for folder in ("tests", "bench")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    assert readers
    assert unread_exports(modules, readers) == []


def test_the_check_sees_an_unread_export():
    modules = {
        "a": "__all__ = ['called', 'tested', 'unread', 'Result']\n\n"
        "class Result:\n    pass\n\n"
        "def called():\n    return unread()\n\n"
        "def tested():\n    return Result()\n\n"
        "def unread():\n    return 1\n",
        "b": "from .a import called\n\ncalled()\n",
    }
    readers = ["from qcluster.a import tested\n"]
    assert unread_exports(modules, readers) == ["a.unread"]


def exports_without_a_caller(module: str, sources: dict, readme: str) -> list:
    """Names in ``module``'s __all__ that no other source and no word of ``readme`` names.

    ``sources`` maps a name to the source of a package module or a bench
    file; the tests are not callers.
    """
    named = set(re.findall(r"\w+", readme)).union(
        *(_mentions(ast.parse(source)) for name, source in sources.items() if name != module)
    )
    return [name for name in _export_list(ast.parse(sources[module])) if name not in named]


@pytest.mark.parametrize("module", ["torus", "snake", "strings", "valuation", "kronecker"])
def test_every_export_has_a_caller_outside_the_tests(module):
    root = Path(__file__).resolve().parents[1]
    sources = {path.stem: path.read_text() for path in MODULES}
    sources.update({str(path): path.read_text() for path in sorted((root / "bench").rglob("*.py"))})
    assert exports_without_a_caller(module, sources, (root / "README.md").read_text()) == []


def test_the_check_sees_an_export_without_a_caller():
    sources = {"a": "__all__ = ['run', 'helper', 'documented']\n", "b": "from .a import run\n"}
    assert exports_without_a_caller("a", sources, "Call `documented(x)`.") == ["helper"]


def test_the_package_exports_exactly_the_module_export_lists():
    listed = {name for path in MODULES for name in _export_list(ast.parse(path.read_text()))}
    assert sorted(qcluster.__all__) == sorted(listed)  # no name listed twice
    modules = {path.stem for path in MODULES}
    public = {name for name in vars(qcluster) if not name.startswith("_")} - modules
    assert public == listed


def declared_floor(pyproject: str) -> tuple:
    """The (major, minor) of pyproject.toml's requires-python lower bound."""
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject).groups()
    return int(major), int(minor)


def test_every_python_file_parses_at_the_declared_floor():
    """Every .py file under src/, tests/ and bench/ parses with the grammar of
    the oldest Python that pyproject.toml accepts, which CI runs on."""
    root = Path(__file__).resolve().parents[1]
    floor = declared_floor((root / "pyproject.toml").read_text())
    assert floor == (3, 10)
    paths = [path for folder in ("src", "tests", "bench") for path in sorted((root / folder).rglob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_the_floor_check_sees_newer_syntax():
    assert declared_floor('requires-python = ">=3.10"\n') == (3, 10)
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "def f[T](x: T):\n    pass\n"):
        with pytest.raises(SyntaxError):
            ast.parse(source, feature_version=(3, 10))


def test_the_command_line_loads_no_worker_pool():
    """Only ``verify --jobs`` above 1 starts worker processes, so importing
    the command line leaves the pool's modules unloaded."""
    probe = (
        "import sys, qcluster.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qcluster.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
