"""Every name a library module, test or demo imports is used there, or marked as kept."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "orderword").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [str(p.relative_to(ROOT)) for p in SCRIPTS],
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from itertools import takewhile, chain\n"
        "from os import sep  # noqa: F401\n"
        "print(chain)\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == ["sample.py:1: takewhile"]
