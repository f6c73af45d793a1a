"""The names the benchmark looks up in walkfield stay importable.

``bench/spans.py`` wraps each ``(module, attr)`` of its ``TARGETS`` by
``getattr``, and ``bench/workloads.py`` calls ``wf_<module>.<name>``; a
name that moved or went would fail the benchmark only when it runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _module_aliases(tree):
    """{alias: module} for every ``import walkfield.x as alias`` in a module."""
    return {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("walkfield") and alias.asname
    }


def test_benchmark_lookup_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]

    tree = ast.parse((BENCH / "workloads.py").read_text())
    aliases = _module_aliases(tree)
    used = {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    missing += [f"{module}.{attr}" for module, attr in sorted(used)
                if not hasattr(importlib.import_module(module), attr)]

    assert spans.TARGETS and used
    assert not missing, f"names the benchmark looks up are gone: {missing}"
