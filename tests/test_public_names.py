"""Each public name is declared once, in its module's ``__all__``.

The package re-exports the layer modules' lists in layer order, so its
``__all__`` is their concatenation and nothing more; no test spells the
names out, which would be one more list to keep in step.
"""

import tensorstat
from tensorstat import distributions, errors, linalg, stats, tensor_core, tensorfile, verify

LAYERS = (errors, tensor_core, linalg, stats, distributions)


def test_package_all_is_the_layers_all_in_order():
    assert tensorstat.__all__ == [name for module in LAYERS for name in module.__all__]


def test_no_name_is_declared_twice():
    names = [name for module in LAYERS + (tensorfile, verify) for name in module.__all__]
    assert len(names) == len(set(names))


def test_each_name_is_its_modules_object():
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(tensorstat, name) is getattr(module, name), name
