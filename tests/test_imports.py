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


def test_emitted_code_runs_only_through_the_code_cache():
    # ``kernel.exec_emitted`` is the one place that compiles and runs code
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "exec_emitted"]
        inside = {id(node) for h in helper for node in ast.walk(h)}
        offenders += [f"{path.name}:{node.lineno}: {node.func.id}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("compile", "exec") and id(node) not in inside]
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


BENCH = Path(__file__).resolve().parent.parent / "bench"

# Exported names that nothing in src/ or bench/ uses, each kept on purpose
KEPT = {
    "invariants.f1", "invariants.f2",  # thin scalar API over InvariantSeries
    # references the series check of ``adiakit check`` is to report
    "invariants.lie_derivative",  # the Lie-defect order contract
    "invariants.ty2_residual",  # F₁'s homological residual
    "invariants.resolve_ty3",  # F₂'s, at one point: the drift check reads it off a batch
    "fixtures.verify_transverse_momentum",  # the particle's identity J = v⊥²/(2ω)
    # independent references that tests compare the pipeline against
    "invariants.momentum_from_action",  # J from the primitive 1-form Σ y dx
    "kernel.derivative", "kernel.exp", "kernel.log",  # oracles of the kernel and sl(2) tests
}


def _span(tree, name):
    """(first, last) line of the module-level statement that binds ``name``."""
    for node in tree.body:
        targets = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   else [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)])
        if name in targets:
            return node.lineno, node.end_lineno
    return 0, -1


def _uses(tree, stem, name, bench):
    """Whether ``tree`` mentions export ``name`` of module ``stem``: imports it,
    reads it off the module (``stem.name``, ``alias.name``) or, in bench/,
    names it as a string, which is how its tracer wraps a function."""
    aliases = {stem}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if alias.name == stem:
                    aliases.add(alias.asname or stem)
                elif alias.name == name and source in (stem, "adiakit"):
                    return True
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == name:
            owner = node.value
            if (owner.id if isinstance(owner, ast.Name)
                    else getattr(owner, "attr", None)) in aliases:
                return True
        elif bench and isinstance(node, ast.Constant) and node.value == name:
            return True
    return False


def test_every_exported_name_is_used():
    # an exported name that only its definition, __all__ and the package's
    # re-export mention is API that no command, check or benchmark reaches
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(BENCH.glob("*.py"))]
    exported, offenders = set(), []
    for stem, tree in modules.items():
        for name in getattr(importlib.import_module(f"adiakit.{stem}"), "__all__", ()):
            exported.add(f"{stem}.{name}")
            own = [_span(tree, "__all__"), _span(tree, name)]
            used = (any(isinstance(node, ast.Name) and node.id == name
                        and not any(a <= node.lineno <= b for a, b in own)
                        for node in ast.walk(tree))
                    or any(_uses(other, stem, name, False)
                           for other_stem, other in modules.items() if other_stem != stem)
                    or any(_uses(other, stem, name, True) for other in bench))
            if not used and f"{stem}.{name}" not in KEPT:
                offenders.append(f"{stem}.{name}")
    assert offenders == []
    assert KEPT <= exported  # no stale entry


def _package_modules(tree):
    """Stems of the ``adiakit`` modules (and other names) that ``tree``
    imports, relatively in the package or by name anywhere else."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (("adiakit." + node.module if node.module else "adiakit") if node.level
                    else node.module)
            names += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("adiakit.")}


def test_every_module_is_reached_by_a_command_or_the_benchmark():
    # a module that only tests import is a test reference and lives in tests/,
    # as the sl(2) family does
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        stem = todo.pop()
        if stem in trees and stem not in reached:
            reached.add(stem)
            todo += _package_modules(trees[stem])
    for path in sorted(BENCH.glob("*.py")):
        reached |= _package_modules(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(f"{stem}.py" for stem in set(trees) - reached) == []
