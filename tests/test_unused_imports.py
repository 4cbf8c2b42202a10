"""Every name a library module, test or demo imports is used there, or marked as kept.

Every private module-level name, private method and private ``self`` attribute of
the library is also read somewhere in it. Every method of an order that a test
derives from ``MagnusOrder``, or that defines its own ``compare``, overrides one of
its members or is called by the order.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from orderword import MagnusOrder

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
        "print(chain)\n"
        "def f():\n"
        "    import json\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == ["sample.py:1: takewhile", "sample.py:5: json"]


def _unused_private_names(paths: list[Path]) -> list[str]:
    """The ``_``-prefixed names, dunders aside, that no file in ``paths`` reads.

    Checked are module-level functions, classes and constants, the methods of
    module-level classes, and attributes stored on ``self``. A name counts as
    used when some file reads it, as a plain name or as an attribute; its
    definition, stores to it and imports of it do not count.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    unused = []
    for path, tree in trees.items():
        defined = []  # (line, label, name)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                defined += [(n.lineno, f"{node.name}.{n.name}", n.name) for n in methods]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(node.lineno, name, name) for name in names]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                defined.append((node.lineno, f"self.{node.attr}", node.attr))
        unused += [
            f"{path.name}:{line}: {label}"
            for line, label, name in sorted(defined)
            if name.startswith("_") and not name.startswith("__") and name not in used
        ]
    return unused


def test_no_unused_private_library_names():
    assert _unused_private_names(sorted((ROOT / "src" / "orderword").glob("*.py"))) == []


def test_guard_sees_an_unused_private_name(tmp_path):
    sample, user = tmp_path / "sample.py", tmp_path / "user.py"
    sample.write_text(
        "_LIMIT = 3\n"
        "_spare: int = 0\n"
        "__version__ = '1'\n"
        "def _helper(x):\n"
        "    return x + _LIMIT\n"
        "def _orphan():\n"
        "    _orphan_local = 1\n"
        "class _Shape:\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._kept, self._left = 1, {}\n"
        "    def _read(self):\n"
        "        return self._kept\n"
        "    def _spare(self):\n"
        "        return self._read()\n",
        encoding="utf-8",
    )
    user.write_text(
        "from sample import _helper, _orphan\n"
        "import sample\n"
        "print(_helper(1), sample._Shape)\n",
        encoding="utf-8",
    )
    assert _unused_private_names([sample, user]) == [
        "sample.py:2: _spare",
        "sample.py:6: _orphan",
        "sample.py:12: self._left",
        "sample.py:15: Box._spare",
    ]


def _stale_order_methods(paths: list[Path]) -> list[str]:
    """The methods of the orders in ``paths`` that nothing reaches.

    An order is a ``MagnusOrder`` subclass, or a class that defines ``compare`` and
    derives from none, as the test orders that are no ``MagnusOrder`` do.

    A method counts as reached when ``MagnusOrder`` has a member of its name, or
    when the class or one of its bases in ``paths`` reads it through ``self``. A
    method left behind when the member it overrode is renamed or deleted fails both.
    """
    classes = {}  # name: (file name, class node)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.name, node)

    def lineage(name: str) -> list[ast.ClassDef] | None:
        # The class and its bases in paths if it is an order, else None.
        if name == "MagnusOrder":
            return []
        node = classes.get(name, (None, None))[1]
        for base in node.bases if node else ():
            above = lineage(base.id) if isinstance(base, ast.Name) else None
            if above is not None:
                return [node, *above]
        if node and not node.bases and any(
            isinstance(m, ast.FunctionDef) and m.name == "compare" for m in node.body
        ):
            return [node]
        return None

    stale = []
    for name, (file, node) in classes.items():
        ancestry = lineage(name)
        if ancestry is None:
            continue
        reads = {
            n.attr
            for c in ancestry
            for n in ast.walk(c)
            if isinstance(n, ast.Attribute) and ast.unparse(n.value) == "self"
        }
        stale += [
            f"{file}:{m.lineno}: {name}.{m.name}"
            for m in node.body
            if isinstance(m, ast.FunctionDef)
            and not hasattr(MagnusOrder, m.name)
            and m.name not in reads
        ]
    return stale


def test_no_test_order_keeps_a_stale_method():
    assert _stale_order_methods(sorted(ROOT.glob("tests/*.py"))) == []


def test_guard_follows_an_order_that_is_no_magnus_order(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class Lex:\n"
        "    def compare(self, v, w):\n"
        "        return self._key(v) > self._key(w)\n"
        "    def _key(self, letters):\n"
        "        return letters\n"
        "class Reversed(Lex):\n"
        "    def _unread(self):\n"
        "        return 0\n",
        encoding="utf-8",
    )
    assert _stale_order_methods([sample]) == ["sample.py:7: Reversed._unread"]


def test_guard_sees_a_stale_order_method(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class Old(MagnusOrder):\n"
        "    def _sign_letters(self, letters):\n"
        "        return 1\n"
        "class Lex(MagnusOrder):\n"
        "    def _key(self, letters):\n"
        "        return letters\n"
        "    def compare(self, v, w):\n"
        "        return self._key(v) > self._key(w)\n"
        "class Reversed(Lex):\n"
        "    def _key(self, letters):\n"
        "        return letters[::-1]\n"
        "    def _unread(self):\n"
        "        return 0\n"
        "class Plain:\n"
        "    def _unread(self):\n"
        "        return 0\n",
        encoding="utf-8",
    )
    assert _stale_order_methods([sample]) == [
        "sample.py:2: Old._sign_letters",
        "sample.py:12: Reversed._unread",
    ]
