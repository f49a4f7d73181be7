"""Every module under src/advweave uses each name it imports.

No linter ships with the project, so this is its unused-import check:
a deletion that leaves an import behind fails here. The package
__init__ is exempt, since its imports are the public re-exports.
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
