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


def test_spatial_fit_loads_no_scipy_linalg(tmp_path):
    # the sum-zero Helmert basis is built in numpy and the spatial model
    # solves nothing sparse, so its fit never imports scipy.linalg
    cfg = tmp_path / "spatial.cfg"
    cfg.write_text("fixture=columbus\nmodel=spatial\niterations=200\nburnin=50\n")
    code = (
        "import sys\nfrom walkfield.cli import main\n"
        f"print(main(['fit', '--config', {str(cfg)!r}, '--seed', '1', '--out', "
        f"{str(tmp_path / 'fit')!r}, '--quiet']))\n"
        "print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
                         timeout=120).stdout
    assert out.split() == ["0", "False"]
    assert (tmp_path / "fit" / "summary.json").is_file()


def test_population_commands_load_no_scipy_linalg(tmp_path):
    # every gap law is summed by uniformization in numpy, so neither the ODE,
    # nor the death-free snapshot sampler, nor a convergence study with deaths
    # imports scipy.linalg
    (tmp_path / "nodes.csv").write_text("node_id,x,y\n0,0,0\n1,1,0\n2,1,1\n")
    (tmp_path / "edges.csv").write_text("from,to,distance\n0,1,1.0\n1,2,1.0\n")
    graph = f"nodes={tmp_path / 'nodes.csv'}\nedges={tmp_path / 'edges.csv'}\nsymmetric=true\n"
    jobs = []
    for cmd, name, keys in [
        ("simulate-population", "ode", "t_end=2.0\nsnapshot_every=0.3\nbirth=0.2\ndeath=0.1\n"
                                       "ode=true\n"),
        ("simulate-population", "births", "N=200\nt_end=1.0\nsnapshot_every=0.25\nbirth=0.2\n"
                                          "death=0\n"),
        ("convergence", "convergence", "N_list=50;200\nt_end=0.5\nreplicates=3\nbirth=0.2\n"
                                       "death=0.1\n"),
    ]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(graph + keys)
        jobs.append((cmd, str(cfg), str(tmp_path / name)))
    code = (
        "import sys\nfrom walkfield.cli import main\n"
        f"for cmd, cfg, out in {jobs!r}:\n"
        "    print(main([cmd, '--config', cfg, '--seed', '3', '--out', out, '--quiet']))\n"
        "print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
                         timeout=120).stdout
    assert out.split() == ["0", "0", "0", "False"]
    assert (tmp_path / "births" / "trajectory.csv").is_file()
    assert (tmp_path / "convergence" / "convergence.json").is_file()
