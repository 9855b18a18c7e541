"""Static checks on the package sources: exported names exist, imports are used,
every CLI flag is read, and README's flag table lists the CLI's flags."""

import argparse
import ast
import re
from pathlib import Path

import pytest

import spherekh
from spherekh import cli

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


def _config_reads(functions: dict, name: str, seen: set) -> set:
    """Attributes read as ``config.<attr>`` in ``name`` and the cli functions it calls."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "config"
        ):
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in functions
            and node.func.id not in seen
        ):
            reads |= _config_reads(functions, node.func.id, seen)
    return reads


def test_every_cli_flag_is_read_by_its_runner():
    tree = _tree(Path(cli.__file__))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(subparsers.choices) == sorted(cli.COMMANDS)
    for command, parser in subparsers.choices.items():
        dests = {a.dest for a in parser._actions if a.dest not in ("help", "command")}
        runner = cli._RUNNERS[command].__name__
        unread = sorted(dests - _config_reads(functions, runner, set()))
        assert not unread, f"{command}: flags never read by {runner}: {unread}"


def _flag_cell(flags: str) -> str:
    """README's cell for a command's flag spec: runs of optional flags in
    backticks, runs of required ones in bold backticks."""
    runs = []
    for flag in flags.split():
        required, name = flag.endswith("!"), "--" + flag.rstrip("!")
        if runs and runs[-1][0] == required:
            runs[-1][1].append(name)
        else:
            runs.append((required, [name]))
    return " ".join(
        ("**`{}`**" if required else "`{}`").format(" ".join(names))
        for required, names in runs
    )


def test_readme_flag_table_matches_the_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | flags (required in bold) |\n")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `([a-z0-9-]+)` \| (.+) \|$", table, re.M))
    expected = {command: _flag_cell(flags) for command, (_, flags) in cli._COMMANDS.items()}
    assert rows == expected


def _settings_reads(tree) -> list:
    """(function, what) for each read of the environment and each ctypes import."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        ):
            found.append((function, "os." + node.attr))
        elif isinstance(node, ast.Import):
            found.extend((function, "ctypes") for a in node.names if a.name == "ctypes")
        elif isinstance(node, ast.ImportFrom) and node.module == "ctypes":
            found.append((function, "ctypes"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_new_settings():
    # no setting is read from the environment, and ctypes only reaches
    # numpy's OpenBLAS
    allowed = {("measures", "_openblas", "ctypes")}
    found = {
        (path.stem, function, what)
        for path in MODULES
        for function, what in _settings_reads(_tree(path))
    }
    assert found == allowed, f"settings reads: {sorted(found)}, expected {sorted(allowed)}"
