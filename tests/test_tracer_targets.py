"""The benchmark's tracer wraps library names; every one of them must exist.

``perfbench/tracer.py`` rebinds each ``(owner, attribute)`` of its
``_targets`` by reading ``owner.__dict__[attribute]``, so a renamed or
deleted function would break the traced benchmark run with a ``KeyError``.
The tracer is loaded from its file and left untouched.
"""

import importlib.util
from pathlib import Path

import numpy as np

import tensorstat
import tensorstat.cli  # noqa: F401  (loads every module the tracer wraps)
from tensorstat.stats import SampleSet
from tensorstat.tensor_core import Shape

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


def test_covariance_is_counted_through_cross_covariance(monkeypatch):
    # The tracer counts stats.cov_madds on the cross_covariance it rebinds
    # in the stats module, so covariance must call it by that name.
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    for owner, attr, name, count in tracer_module._targets(tensorstat):
        if owner is tensorstat.stats and attr == "cross_covariance":
            monkeypatch.setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], count))
    rows = np.random.default_rng(3).standard_normal((100, 32))
    tensorstat.stats.covariance(SampleSet._wrap(rows, Shape((4, 8))))
    assert tracer.counts == {"stats.observations": 100, "stats.cov_madds": 100 * 32 * 32}
