"""Every name the benchmark's span tracer wraps resolves on its kerneltower module.

``benchmark/tracing.py`` looks its functions and methods up by name when
``benchmark/run.py --trace 1`` installs it, so a renamed or deleted name
would break trace mode only there.  The file is read, never installed.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _tracing() -> dict:
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_traced_functions_resolve():
    missing = [
        f"kerneltower.{layer}.{name}"
        for layer, spans in _tracing()["FUNCTIONS"].items()
        for names in spans.values()
        for name in names
        if not callable(getattr(importlib.import_module(f"kerneltower.{layer}"), name, None))
    ]
    assert not missing


def test_traced_methods_resolve():
    missing = [
        f"kerneltower.{module}.{cls}.{method}"
        for targets in _tracing()["METHODS"].values()
        for module, cls, method in targets
        if not callable(getattr(getattr(importlib.import_module(f"kerneltower.{module}"), cls, None),
                                method, None))
    ]
    assert not missing
