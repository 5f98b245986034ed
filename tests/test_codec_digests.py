"""Pinned sha256 digests of the file writers, and bit-equal read-back.

Every entry is a small dyadic rational, exactly representable in float64,
so neither the arithmetic that builds the inputs nor the BLAS enters the
bytes.  The digests pin both JSON layouts (``json.dumps`` spacing, key
order, shortest round-trip decimals) and both binary layouts (magic,
optional u64 count, u8 order, u32 dims, ``<f8`` payload).
"""

import hashlib

import numpy as np
import pytest

from tensorstat.linalg import KroneckerFactors
from tensorstat.stats import SampleSet
from tensorstat.tensor_core import DenseTensor, Shape, SquareTensor
from tensorstat.tensorfile import (
    read_params,
    read_sample_set,
    read_tensor,
    write_params,
    write_sample_set,
    write_tensor,
)


def _values(n, offset=0):
    # Distinct, signed, exactly representable entries; a zero is -0.0.
    v = (np.arange(n, dtype=np.float64) + offset) / 8.0 - 1.0
    v[v == 0.0] = -0.0
    return v


TENSOR = DenseTensor(_values(6), Shape((2, 3)))
SQUARE = SquareTensor(_values(16, 3), Shape((2, 2)))
LOCATION = DenseTensor(_values(4, 1), Shape((2, 2)))
SCALE = SquareTensor(np.diag([1.0, 2.25, 0.5, 4.0]).ravel(order="F"), Shape((2, 2)))
FACTORS = KroneckerFactors((np.array([[2.0, 0.5], [0.5, 1.0]]), np.diag([0.25, 3.0])))


def _samples(count):
    return SampleSet._wrap(_values(6 * count, 5).reshape(count, 6), Shape((2, 3)))


def _bits(value) -> bytes:
    # The kind, shape and entry bytes of what a reader returns; -0.0 and
    # 0.0 differ here, as they do not under ==.
    if isinstance(value, tuple):
        return b"|".join(_bits(v) for v in value)
    if isinstance(value, KroneckerFactors):
        return b"kronecker" + b"".join(_bits(DenseTensor.from_array(f)) for f in value.factors)
    if isinstance(value, SampleSet):
        return f"samples {value.shape}".encode() + value.to_matrix().tobytes()
    return f"{type(value).__name__} {value.array.shape}".encode() + value.data.tobytes()


# name: (writer, reader, what the reader must return)
CASES = {
    "tensor.json": (lambda p: write_tensor(p, TENSOR), read_tensor, TENSOR),
    "square.json": (lambda p: write_tensor(p, SQUARE), read_tensor, SQUARE),
    "tensor.bin": (lambda p: write_tensor(p, TENSOR, binary=True), read_tensor, TENSOR),
    # The binary header carries no kind tag: a square tensor comes back dense.
    "square.bin": (
        lambda p: write_tensor(p, SQUARE, binary=True), read_tensor,
        DenseTensor.from_array(SQUARE.array),
    ),
    "samples0.json": (
        lambda p: write_sample_set(p, _samples(0), seed=11), read_sample_set, _samples(0)
    ),
    "samples3.json": (
        lambda p: write_sample_set(p, _samples(3), seed=None), read_sample_set, _samples(3)
    ),
    "samples0.bin": (
        lambda p: write_sample_set(p, _samples(0), binary=True), read_sample_set, _samples(0)
    ),
    "samples3.bin": (
        lambda p: write_sample_set(p, _samples(3), seed=11, binary=True), read_sample_set,
        _samples(3),
    ),
    "dense-params.json": (
        lambda p: write_params(p, LOCATION, SCALE), read_params, (LOCATION, SCALE)
    ),
    "kronecker-params.json": (
        lambda p: write_params(p, LOCATION, FACTORS), read_params, (LOCATION, FACTORS)
    ),
}

DIGESTS = {
    "tensor.json":
        "8342c63556fbb0bcb92335d313378462b05c4ccda6cc67e5d5ff8d9378e14735",
    "square.json":
        "486be4d89aae36f79474697b3dc933e6a0273b9feddcada6d46805554892eb7d",
    "tensor.bin":
        "c692dd19bafe67ced83811a3e7662a364406e798889195a83f251e5cbc85ab49",
    "square.bin":
        "568b3b73d4bb17ed911a446b610ee6c1ea4c9d4118dfa2941ea0414b7914fa5c",
    "samples0.json":
        "f351a095eb990df80ec9e1ced5fd4430b58a75d50bdf35df254b7dbf1ad50cba",
    "samples3.json":
        "c3d70e1ff48e93d6eea12e89e71a560696a9519688fc3d71b9ce47f9aecda702",
    "samples0.bin":
        "fc1b712b9ed6b51469dab32686d1fdde12538dd23085f3bd9ea942c8946591b8",
    "samples3.bin":
        "94b0ec2ebb9a15114c08a53422f4f9f4155cb0f3315e272f44d047844e1db529",
    "dense-params.json":
        "2b2137304016fc9ad8f0a412f4a5011d41742e3d99dcec0de882dc860e02eae7",
    "kronecker-params.json":
        "0614a797c705c75fe646d46dd083e514523abbde89cdb2ee7e5c24586a18c4ba",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_bytes_are_pinned_and_read_back_bit_equal(tmp_path, name):
    write, read, expected = CASES[name]
    path = tmp_path / name
    write(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
    assert _bits(read(str(path))) == _bits(expected)
