"""Every third-party module that ``irrev`` imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = set().union(*(imported_top_level_modules(p)
                             for p in sorted((ROOT / "src" / "irrev").glob("*.py"))))
    third_party = imported - set(sys.stdlib_module_names) - {"irrev"}
    assert {"numpy", "scipy", "orjson"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)
