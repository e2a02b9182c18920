"""The declared dependencies are exactly the third-party packages the code imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "ekcodes").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names and name != "ekcodes"}


def _declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }


def test_declared_dependencies_match_imports():
    imports = _third_party_imports()
    assert "numpy" in imports  # the scan sees the package's imports at all
    assert imports == _declared_dependencies()
