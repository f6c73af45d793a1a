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


def test_build_and_check_ident_load_no_csgraph(tmp_path):
    # strong connectivity is two searches over Q's pattern; only the field's
    # grounded factorization imports scipy.sparse.csgraph
    (tmp_path / "nodes.csv").write_text("node_id,label\n" + "".join(f"{i},n{i}\n"
                                                                     for i in range(5)))
    (tmp_path / "edges.csv").write_text("from,to,distance\n"
                                        "0,1,1.0\n1,2,2.0\n2,3,1.0\n3,4,1.5\n4,0,1.0\n")
    cfg = tmp_path / "graph.cfg"
    cfg.write_text(f"nodes={tmp_path / 'nodes.csv'}\nedges={tmp_path / 'edges.csv'}\n"
                   "symmetric=true\nbeta0=0.5\n")
    code = (
        "import sys\nfrom walkfield.cli import main\n"
        "for cmd in ('build', 'check-ident'):\n"
        f"    print(main([cmd, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r} + '/' + cmd,"
        " '--quiet']))\n"
        "print('scipy.sparse.csgraph' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
                         timeout=120).stdout
    assert out.split() == ["0", "0", "False"]
    assert (tmp_path / "build" / "generator.json").is_file()
    assert (tmp_path / "check-ident" / "identifiability.json").is_file()


def test_fit_loads_no_scipy_special(tmp_path):
    # the exact sigma draw takes Robert's tail sampler, not ndtr/ndtri, so a
    # Gaussian fit never pays for importing scipy.special
    cfgs = []
    for model in ("spatial", "diffusion"):
        cfg = tmp_path / f"{model}.cfg"
        cfg.write_text(f"fixture=columbus\nmodel={model}\niterations=200\nburnin=50\n")
        cfgs.append((str(cfg), str(tmp_path / model)))
    code = (
        "import sys\nfrom walkfield.cli import main\n"
        f"for cfg, out in {cfgs!r}:\n"
        "    print(main(['fit', '--config', cfg, '--seed', '1', '--out', out, '--quiet']))\n"
        "print('scipy.special' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
                         timeout=120).stdout
    assert out.split() == ["0", "0", "False"]
    for model in ("spatial", "diffusion"):
        assert (tmp_path / model / "summary.json").is_file()
