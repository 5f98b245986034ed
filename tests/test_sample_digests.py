"""Pinned sha256 digests of ``sample`` output files.

They pin the draws and the byte layout of the JSON and binary writers.
The scales are diagonal with distinct entries and the locations have a
distinct value per cell: any change to the cell order, the observation
order or the number formatting changes the bytes.  With diagonal factors
no rounded sum enters an entry, so the digests do not depend on the BLAS
kernel that computes the products.

The 2x2 files use a dense scale and the dense Cholesky route (``z @ L.T``);
their digests date from the per-observation implementation.  The 16x16x4
files use a Kronecker scale, whose draws are multiplied by one lower factor
per mode in mode order; each entry is rounded once per mode, so these
digests differ from the dense route's bytes for the same law.
"""

import hashlib

import numpy as np
import pytest

from tensorstat.cli import main
from tensorstat.linalg import KroneckerFactors
from tensorstat.tensor_core import DenseTensor, Shape, unmatricize
from tensorstat.tensorfile import write_params

SEED = "20211"

DIGESTS = {
    ("2x2", "normal"): "f25315eae431e6e12248077a41dbec063a931277ce6fb5ddd9c00418d5c538fa",
    ("2x2", "student:5"): "012d7cb6e1ddf133905731c0a96408fcb8ad9a10afb9cc8c80ea6978d961de89",
    ("16x16x4", "normal"): "a946d1b47042de4fe3e7c5c722b21c57992b8b222863dea4820557bbe0908a98",
    ("16x16x4", "student:5"): "7b1ebd773e81affeedc69aac15cb68e1ec88f5bd8d4b4c4067dbfafabb9af4d8",
}


def _location(dims):
    n = int(np.prod(dims))
    values = 0.25 * np.arange(n) - 0.125 * n
    return DenseTensor(values, Shape(dims))


def _params_2x2(path):
    scale = unmatricize(np.diag([1.0, 2.25, 0.5, 4.0]), Shape((2, 2)))
    write_params(str(path), _location((2, 2)), scale)


def _params_16x16x4(path):
    factors = (
        np.diag(1.0 + np.arange(16) / 16.0),
        np.diag(2.0 - np.arange(16) / 32.0),
        np.diag([0.5, 1.0, 1.5, 3.0]),
    )
    write_params(str(path), _location((16, 16, 4)), KroneckerFactors(factors))


CASES = {
    "2x2": (_params_2x2, "samples.json", "1000"),
    "16x16x4": (_params_16x16x4, "samples.bin", "50"),
}


@pytest.mark.parametrize("family", ["normal", "student:5"])
@pytest.mark.parametrize("shape", sorted(CASES))
def test_sample_file_digest_is_pinned(tmp_path, capsys, shape, family):
    make_params, name, count = CASES[shape]
    params = tmp_path / "params.json"
    make_params(params)
    out = tmp_path / name
    code = main(
        ["sample", str(params), str(out), "--count", count, "--seed", SEED, "--family", family]
    )
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[(shape, family)]
