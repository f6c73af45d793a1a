"""Importing walkfield loads numpy and scipy.sparse, and no other scipy submodule.

The benchmark times a fresh interpreter running the import line of
``bench/run.py``; each scipy submodule below is imported at the first call
of a function that needs it (see ``walkfield._scipy``), so a module-level
import of one would put it back into every command's start-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse.linalg",
            "scipy.sparse.csgraph")


def _benchmark_import_line():
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    return next(node.value.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["IMPORTS"])


def test_import_loads_no_deferred_scipy_submodule():
    line = _benchmark_import_line()
    assert line.startswith("import walkfield")
    code = f"{line}\nimport sys\nprint(*[m for m in {DEFERRED!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
                         timeout=120).stdout
    assert out.split() == []
