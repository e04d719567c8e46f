"""Package layout: modules use each other only through public names."""

import ast
import importlib
from pathlib import Path

import adiakit

PACKAGE = Path(adiakit.__file__).parent


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_every_exported_name_exists():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "adiakit" if path.stem == "__init__" else f"adiakit.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{path.name}: {export}" for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert missing == []


def _imported_names(tree):
    """(name, line) bound by each import statement, ``__future__`` excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used():
    # __init__.py imports in order to re-export, so it is not checked
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line}: {name}"
                      for name, line in _imported_names(tree) if name not in used]
    assert offenders == []


def _private_definitions(tree):
    """(name, first line, last line) of each ``_``-prefixed, non-dunder name
    bound at module or class level."""
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield name, node.lineno, node.end_lineno


def test_every_private_name_is_used():
    # a private name that only its own definition mentions is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}  # name -> [(file, line)]
    for file, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.setdefault(name, []).append((file, node.lineno))
    offenders = [f"{file}:{first}: {name}"
                 for file, tree in trees.items()
                 for name, first, last in _private_definitions(tree)
                 if all(f == file and first <= line <= last for f, line in uses.get(name, []))]
    assert offenders == []
