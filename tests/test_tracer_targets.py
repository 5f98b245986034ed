"""The benchmark's tracer wraps library names; every one of them must exist.

``perfbench/tracer.py`` rebinds each ``(owner, attribute)`` of its
``_targets`` by reading ``owner.__dict__[attribute]``, so a renamed or
deleted function would break the traced benchmark run with a ``KeyError``.
The tracer is loaded from its file and left untouched.
"""

import importlib.util
from pathlib import Path

import tensorstat
import tensorstat.cli  # noqa: F401  (loads every module the tracer wraps)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_where_the_tracer_looks():
    targets = load_tracer()._targets(tensorstat)
    assert targets
    for owner, attr, name, _count in targets:
        assert attr in owner.__dict__, f"{name}: {owner!r} has no {attr!r}"
