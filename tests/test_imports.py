"""The package imports only the standard library and itself, at module level."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "relpoly"


def test_imports_are_module_level_and_stdlib_only():
    modules = {path.stem for path in SRC.glob("*.py")}
    assert {"fileio", "modaction", "patterns", "relations"} <= modules
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = f"{path.name}:{node.lineno}"
            assert node in tree.body, f"{where}: import below module level"
            if isinstance(node, ast.ImportFrom) and node.level:
                # from .module import ..., or from . import module, ...
                names = [node.module] if node.module else [alias.name for alias in node.names]
                assert all(name.split(".")[0] in modules for name in names), where
            else:
                names = [node.module] if isinstance(node, ast.ImportFrom) else \
                    [alias.name for alias in node.names]
                assert all(name.split(".")[0] in sys.stdlib_module_names | {"relpoly"}
                           for name in names), where


def test_every_imported_name_is_used():
    # A name a module imports and never reads is dead weight; __init__.py
    # imports to re-export, so it is left out.
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = f"{path.name}:{node.lineno}"
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [f"{where}: {name}" for name, where in imported.items() if name not in used]
        assert not unused, unused


def test_console_script_names_a_callable():
    # pyproject.toml is read line by line: Python 3.10 has no tomllib.
    section, scripts = None, {}
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, _, target = line.partition("=")
            scripts[name.strip()] = target.strip().strip("\"'")
    assert set(scripts) == {"relpoly"}
    for target in scripts.values():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), target


def test_modaction_keeps_no_state_between_calls():
    # Memos of the action and the commutator check live inside one call, so
    # memory stays bounded in a long-lived process: no module-level or class
    # -level dict, list or set, and no functools cache.
    tree = ast.parse((SRC / "modaction.py").read_text())
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for stmt in (stmt for body in bodies for stmt in body):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and stmt.value:
            value = stmt.value
            where = f"modaction.py:{stmt.lineno}"
            assert not isinstance(value, containers), where
            assert not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                        and value.func.id in {"dict", "list", "set", "defaultdict",
                                              "OrderedDict", "Counter"}), where
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            names = {node.attr}
        else:
            continue
        assert not names & {"cache", "lru_cache"}, f"modaction.py:{node.lineno}"
