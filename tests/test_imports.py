"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crowdloss"
# __init__.py imports only to export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by ``import`` or ``from ... import`` (``__future__`` aside)
    that never appear as a ``Name``, which includes the base of an ``Attribute``."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_finds_unused_names():
    source = (
        "from __future__ import annotations\nimport math\nimport os.path\nimport numpy as np\n"
        "from . import geometry\nfrom .errors import InvalidInputError as Bad, check\n"
        "def f(x: Bad) -> float:\n    return np.sqrt(os.path.getsize(x))\n"
    )
    assert unused_imports(source) == ["check", "geometry", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
