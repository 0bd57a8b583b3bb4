"""Every third-party package that a ``repro`` module imports at module
level is declared in pyproject.toml's ``dependencies``, so installing
the declared packages is enough to import every module.

Imports inside functions, ``if`` blocks and ``try`` guards are optional
at import time and are not counted.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def declared_dependencies() -> set[str]:
    """Import names of pyproject's ``dependencies`` (a distribution's
    name up to its first version, extra or marker character)."""
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return {
        re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower().replace("-", "_")
        for dep in doc["project"]["dependencies"]
    }


def module_level_imports(path: Path) -> set[str]:
    """Top-level package names imported by ``path``'s module body."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_module_level_third_party_imports_are_declared():
    declared = declared_dependencies()
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in module_level_imports(path):
            if name != "repro" and name not in sys.stdlib_module_names:
                found.setdefault(name, []).append(
                    str(path.relative_to(ROOT)))
    assert "numpy" in found  # the scan sees the package's imports
    missing = {name: files for name, files in found.items()
               if name not in declared}
    assert not missing, (
        f"imported at module level but missing from pyproject.toml's "
        f"dependencies: {missing}")
