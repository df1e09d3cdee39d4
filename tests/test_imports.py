"""Every name that a module of ``heun_spectra`` imports is used in it, so a
deleted class or function leaves no dangling import behind."""

import ast
import pathlib

import pytest

import heun_spectra

PACKAGE = pathlib.Path(heun_spectra.__file__).parent


def imported_names(tree):
    """(name bound, line) of every import in the module, at any depth,
    ``from __future__`` imports left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def module_private_names(tree):
    """(name, line) of every private name (leading underscore, not a dunder)
    that the module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_name_is_used():
    """A private helper that no module of the package reads, as a name or as
    an attribute, is dead code left behind by a deletion."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = [f"{name}: {private} (line {line})" for name, tree in trees.items()
               for private, line in module_private_names(tree) if private not in read]
    assert not orphans, f"private names nothing reads: {', '.join(orphans)}"
