"""The boundaries the benchmark's traced run wraps must exist where it looks.

``bench/tracing.py`` wraps functions by module attribute and methods by
their class's own ``__dict__``; a rename, a move or an inherited method
would otherwise only surface as a failing ``bench/run.py --trace 1``.
"""

import importlib.util
import inspect
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_exist():
    functions, methods = load_tracing()._targets()
    for module, attr, _, _ in functions:
        assert inspect.isfunction(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, _, _ in methods:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr} is not defined on the class"
