"""Every module under src/advweave uses each name it imports, and every
module-level private name (`_name`) that the package defines is read
somewhere in the package.

No linter ships with the project, so these are its unused-import and
dead-helper checks: a deletion that leaves an import or a helper behind
fails here. The package __init__ is exempt from the import check, since
its imports are the public re-exports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "advweave"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports (other than from __future__) and never
    reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_finds_a_name_left_behind():
    source = ("from .weave import attacked_conv_nchw, equivalence_report\n"
              "import numpy as np\n"
              "import os.path\n"
              "rep = equivalence_report(np.zeros(1), os.path)\n")
    assert unused_imports(source) == ["attacked_conv_nchw"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources: list[str]) -> list[str]:
    """The module-level private names (`_name`, not dunders) that the
    sources define, as a def, class or assignment, and none of them reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_finds_a_helper_left_behind():
    sources = ["_LIMIT = 4\n"
               "def _block_rows(n):\n    return n // _LIMIT\n"
               "def _conv(x):\n    return x\n"
               "__version__ = '1'\n",
               "from .conv import _conv\n"
               "def run(m):\n    return _conv(m) + m._width\n"
               "class _Unused:\n    _width = 1\n"]
    assert dead_private_names(sources) == ["_Unused", "_block_rows"]


def test_no_dead_private_helpers():
    assert dead_private_names([p.read_text() for p in SRC.glob("*.py")]) == []
