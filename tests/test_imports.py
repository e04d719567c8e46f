"""Package layout: modules use each other only through public names."""

import ast
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
