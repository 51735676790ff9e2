"""The traced benchmark run can still patch every name it names.

bench/spans.py rebinds functions and methods of biracks by name, and its
install() fails on the first one that is gone.  This loads the module by
path, without installing anything, and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bindings_resolve():
    missing = [(module, attr) for module, attr, _ in _spans().BINDINGS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_methods_resolve():
    missing = []
    for module, cls, attr, _ in _spans().METHODS:
        klass = getattr(importlib.import_module(module), cls, None)
        if not callable(getattr(klass, attr, None)):
            missing.append((module, cls, attr))
    assert missing == []
