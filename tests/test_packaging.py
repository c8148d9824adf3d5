"""pyproject.toml promises only what the package has: every console script
imports, and every declared dependency is imported by the package."""

import ast
import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "qdlab").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def test_console_script_targets_import():
    for spec in PROJECT.get("scripts", {}).values():
        module, _, attr = spec.partition(":")
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), spec


def test_every_dependency_is_imported():
    imported = _imported_top_level_modules()
    declared = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in PROJECT["dependencies"]]
    unused = [name for name in declared if name.lower().replace("-", "_") not in imported]
    assert unused == []
