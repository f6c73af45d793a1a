"""The scipy functions outside ``scipy.sparse`` that walkfield calls.

Each is a stand-in that imports its scipy submodule at its first call and
then forwards every call to the scipy function (see the package docstring).
"""

import importlib


def _deferred(module, name):
    """``module.name``, with ``module`` imported when the result is first called."""
    fn = None

    def call(*args, **kwargs):
        nonlocal fn
        if fn is None:
            fn = getattr(importlib.import_module(module), name)
        return fn(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, imported at the first call."
    return call


connected_components = _deferred("scipy.sparse.csgraph", "connected_components")
splu = _deferred("scipy.sparse.linalg", "splu")
solve_triangular = _deferred("scipy.linalg", "solve_triangular")
minimize = _deferred("scipy.optimize", "minimize")
ndtr = _deferred("scipy.special", "ndtr")
ndtri = _deferred("scipy.special", "ndtri")
