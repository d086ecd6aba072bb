"""The package imports only the standard library and itself, at module level."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relpoly"


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
