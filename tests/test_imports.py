"""What the package imports: every name a module imports is used in that
module, the config reader takes no private name from a sibling and shares each
section record with the module that runs it, and no command loads ``numpy.ma``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crowdloss.config
from crowdloss import evalkit, gradcheck, simulator

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


def private_sibling_imports(source: str) -> list[str]:
    """Underscore-prefixed names that ``source`` imports from a sibling module (``from .x import _y``)."""
    return sorted(a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom) and node.level
                  for a in node.names if a.name.startswith("_"))


def test_config_imports_no_private_name():
    probe = "from .evalkit import _MATCH_IOU, EvalConfig\nfrom os import _exit\n"
    assert private_sibling_imports(probe) == ["_MATCH_IOU"]
    assert private_sibling_imports((PACKAGE / "config.py").read_text()) == []


@pytest.mark.parametrize("module, name", [(gradcheck, "GradCheckConfig"), (simulator, "NmsSweepConfig"),
                                          (evalkit, "EvalConfig")], ids=lambda v: getattr(v, "__name__", v))
def test_config_module_shares_the_record(module, name):
    assert getattr(crowdloss.config, name) is getattr(module, name)


# eval and anchor-demo on tiny inputs, then a valid target map loaded, in a fresh interpreter
NO_NUMPY_MA = r"""
import sys
from pathlib import Path

from crowdloss.anchors import load_target_map
from crowdloss.cli import main

root = Path(sys.argv[1])
(root / "scenes").mkdir()
(root / "scenes" / "s0.txt").write_text("extent 100 100\nped 10 10 30 60 10 10 30 40\n")
(root / "dets.csv").write_text("scene_id,x1,y1,x2,y2,score\ns0,11,10,30,60,0.9\ns0,50,50,70,90,0.4\n")
(root / "eval.cfg").write_text(f"[eval]\ndetections = {root / 'dets.csv'}\nscenes_dir = {root / 'scenes'}\n")
(root / "anchors.cfg").write_text("[anchors]\nstride = 4\n")
assert main(["eval", "--config", str(root / "eval.cfg"), "--out", str(root / "eval")]) == 0
assert main(["anchor-demo", "--config", str(root / "anchors.cfg"), "--seeds", "0", "--out", str(root / "anchors")]) == 0
assert load_target_map(root / "anchors" / "target_map.txt").labels.size > 0
print("numpy.ma" in sys.modules)
"""


def test_commands_do_not_import_numpy_ma(tmp_path):
    """The package never needs ``numpy.ma``, which numpy imports lazily (about
    10 ms) on the first ``np.unique``; pytest's own process may hold it already."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "False"
