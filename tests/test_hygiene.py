"""Static checks on the package sources: exported names exist, imports are used."""

import ast
from pathlib import Path

import pytest

import spherekh

MODULES = sorted(Path(spherekh.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _top_level_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_names(node))
    return names


def _bound_names(node) -> list:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _used_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_exported_names_exist(path):
    tree = _tree(path)
    missing = sorted(set(_exported(tree)) - _top_level_names(tree))
    assert not missing, f"{path.name}: __all__ lists undefined names {missing}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    ]
    unused = sorted(set(imported) - _used_names(tree) - set(_exported(tree)))
    assert not unused, f"{path.name}: unused imports {unused}"
