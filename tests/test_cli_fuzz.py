"""Fuzz the JSON readers through the CLI entry point.

Every input, however malformed, must end in exit code 0, 2 or 3; a
non-zero exit prints exactly one ``error:`` line and no traceback.  The
examples are derandomized so the suite stays deterministic.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensorstat.cli import main
from tensorstat.linalg import KroneckerFactors
from tensorstat.stats import SampleSet
from tensorstat.tensor_core import DenseTensor, Shape, SquareTensor, unmatricize
from tensorstat.tensorfile import tensor_to_obj

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# Keys the readers look for, so random objects reach past the first check.
KEYS = st.sampled_from(
    ["kind", "shape", "rowShape", "data", "count", "seed", "observations",
     "location", "scale", "factors"]
) | st.text(max_size=4)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from(["tensor", "square2d", "samples", "kronecker", ""])
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=20,
)

SHAPE = Shape((2, 2))
SCALE = unmatricize(np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1, SHAPE)
LOCATION = DenseTensor([0.5, -0.5, 1.0, 0.0], SHAPE)
POINT = DenseTensor([0.1, 0.2, 0.3, 0.4], SHAPE)

TENSOR_DOC = tensor_to_obj(SquareTensor.from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]), SHAPE))
SAMPLES_DOC = {
    "kind": "samples",
    "shape": [2, 2],
    "count": 3,
    "seed": 1,
    "observations": [
        tensor_to_obj(t)
        for t in SampleSet._wrap(np.arange(12.0).reshape(3, 4) ** 1.5, SHAPE)
    ],
}
PARAMS_DOCS = [
    {"location": tensor_to_obj(LOCATION), "scale": tensor_to_obj(SCALE)},
    {
        "location": tensor_to_obj(LOCATION),
        "scale": {
            "kind": "kronecker",
            "factors": [
                tensor_to_obj(DenseTensor.from_array(f))
                for f in KroneckerFactors((np.diag([1.0, 2.0]), np.eye(2))).factors
            ],
        },
    },
]


def mutate(data, value):
    """Replace, delete or add one part of a JSON value, or descend into it."""
    if isinstance(value, (dict, list)) and value and data.draw(st.booleans()):
        value = dict(value) if isinstance(value, dict) else list(value)
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = data.draw(st.sampled_from(list(keys)))
        action = data.draw(st.sampled_from(["descend", "replace", "delete"]))
        if action == "descend":
            value[key] = mutate(data, value[key])
        elif action == "replace":
            value[key] = data.draw(JSON_VALUES)
        else:
            del value[key]
        return value
    if isinstance(value, dict) and data.draw(st.booleans()):
        return {**value, data.draw(KEYS): data.draw(JSON_VALUES)}
    if isinstance(value, list) and data.draw(st.booleans()):
        return value + [data.draw(JSON_VALUES)]
    return data.draw(JSON_VALUES)


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


def run_all(tmp_path, doc):
    """Feed ``doc`` to det, estimate --kind cov and density (as params and as point)."""
    path = write(tmp_path / "fuzz.json", doc)
    params = write(tmp_path / "params.json", PARAMS_DOCS[0])
    point = write(tmp_path / "point.json", tensor_to_obj(POINT))
    out = str(tmp_path / "cov.json")
    assert_clean_exit(*run_cli("det", path))
    assert_clean_exit(*run_cli("estimate", path, out, "--kind", "cov"))
    assert_clean_exit(*run_cli("density", path, point))
    assert_clean_exit(*run_cli("density", params, path, "--log"))


@FUZZ
@given(doc=JSON_VALUES)
def test_arbitrary_json_values(tmp_path, doc):
    run_all(tmp_path, doc)


@FUZZ
@given(data=st.data(), base=st.sampled_from([TENSOR_DOC, SAMPLES_DOC] + PARAMS_DOCS))
def test_mutated_documents(tmp_path, data, base):
    run_all(tmp_path, mutate(data, base))


def test_valid_documents_pass(tmp_path):
    assert run_cli("det", write(tmp_path / "t.json", TENSOR_DOC))[0] == 0
    samples = write(tmp_path / "s.json", SAMPLES_DOC)
    assert run_cli("estimate", samples, str(tmp_path / "c.json"), "--kind", "cov")[0] == 0
    point = write(tmp_path / "x.json", tensor_to_obj(POINT))
    for doc in PARAMS_DOCS:
        assert run_cli("density", write(tmp_path / "p.json", doc), point)[0] == 0


def test_deeply_nested_json_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    point = write(tmp_path / "point.json", tensor_to_obj(POINT))
    for args in (
        ("det", str(path)),
        ("estimate", str(path), str(tmp_path / "cov.json"), "--kind", "cov"),
        ("density", str(path), point),
    ):
        code, err = run_cli(*args)
        assert code == 2
        assert err.splitlines() == ["error: JSON is nested too deeply to read"]
