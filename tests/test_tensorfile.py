"""Tests for the JSON and binary tensor file formats."""

import json
import os
import struct
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensorstat import tensorfile
from tensorstat.errors import FileFormatError, ShapeError
from tensorstat.linalg import KroneckerFactors
from tensorstat.stats import SampleSet
from tensorstat.tensor_core import DenseTensor, Shape, SquareTensor, unmatricize
from tensorstat.tensorfile import (
    MAGIC,
    read_params,
    read_sample_set,
    read_tensor,
    tensor_from_obj,
    tensor_to_obj,
    write_params,
    write_sample_set,
    write_tensor,
)


# The file under tmp_path is rewritten for every example.
FUZZ_FILE = [HealthCheck.function_scoped_fixture]


def random_dense(rng, dims):
    return DenseTensor.from_array(rng.standard_normal(dims))


class TestJsonTensor:
    def test_dense_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(100)
        for dims in [(2,), (3, 2), (2, 2, 2)]:
            t = random_dense(rng, dims)
            path = str(tmp_path / "t.json")
            write_tensor(path, t)
            assert read_tensor(path) == t

    def test_square_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(101)
        x = unmatricize(rng.standard_normal((6, 6)), Shape((2, 3)))
        path = str(tmp_path / "s.json")
        write_tensor(path, x)
        back = read_tensor(path)
        assert isinstance(back, SquareTensor)
        assert back == x

    def test_obj_shapes(self):
        obj = tensor_to_obj(SquareTensor.identity((2, 2)))
        assert obj["kind"] == "square2d"
        assert obj["rowShape"] == [2, 2]
        assert obj["shape"] == [2, 2, 2, 2]
        assert len(obj["data"]) == 16

    def test_kind_defaults_to_tensor(self):
        t = tensor_from_obj({"shape": [2], "data": [1.0, 2.0]})
        assert isinstance(t, DenseTensor)

    def test_square2d_requires_row_shape(self):
        with pytest.raises(FileFormatError):
            tensor_from_obj({"kind": "square2d", "shape": [2, 2], "data": [1, 0, 0, 1]})

    def test_malformed_inputs(self, tmp_path):
        path = str(tmp_path / "bad.json")
        for payload in [
            b"not json at all",
            b"[1, 2, 3",
            json.dumps({"kind": "tensor", "shape": [2]}).encode(),
            json.dumps({"kind": "tensor", "shape": [2], "data": [1.0]}).encode(),
            json.dumps({"kind": "weird", "shape": [2], "data": [1.0, 2.0]}).encode(),
            json.dumps({"kind": "tensor", "shape": [0], "data": []}).encode(),
            json.dumps({"kind": "tensor", "shape": [2], "data": [1.0, 10**400]}).encode(),
            json.dumps({"kind": "tensor", "shape": [True, 2], "data": [1.0, 2.0]}).encode(),
            json.dumps(
                {"kind": "square2d", "rowShape": [True], "shape": [True, True], "data": [4.0]}
            ).encode(),
            # a shape that is not the rowShape twice
            json.dumps(
                {"kind": "square2d", "rowShape": [2], "shape": [3, 3], "data": [2, 0, 0, 2]}
            ).encode(),
            # an integer literal beyond Python's 4300-digit conversion limit
            b'{"kind": "tensor", "shape": [1], "data": [' + b"9" * 5001 + b"]}",
        ]:
            (tmp_path / "bad.json").write_bytes(payload)
            with pytest.raises(FileFormatError):
                read_tensor(path)

    @pytest.mark.parametrize("bad", ["1.5", True, False, None, [2.0], {"v": 2.0}])
    def test_entries_must_be_json_numbers(self, tmp_path, bad):
        # JSON strings and booleans are not numbers, although numpy would
        # convert "1.5" and true; every tensor object refuses them.
        tensor = {"kind": "tensor", "shape": [2], "data": [1.0, bad]}
        square = {"kind": "square2d", "rowShape": [1], "data": [bad]}
        scale = tensor_to_obj(SquareTensor.identity((2,)))
        factor = {"kind": "tensor", "shape": [1, 1], "data": [bad]}
        for obj in (tensor, square):
            with pytest.raises(FileFormatError, match="flat list of numbers"):
                tensor_from_obj(obj)
        path = tmp_path / "p.json"
        for doc in (
            {"location": tensor, "scale": scale},
            {"location": tensor_to_obj(DenseTensor([1.0], (1,))),
             "scale": {"kind": "kronecker", "factors": [factor]}},
        ):
            path.write_text(json.dumps(doc))
            with pytest.raises(FileFormatError, match="flat list of numbers"):
                read_params(str(path))

    def test_17_digit_round_trip(self, tmp_path):
        # shortest round-trip decimals keep awkward doubles bit-exact
        values = [1 / 3, np.pi, 1e-300, -2.2250738585072014e-308, 0.1 + 0.2]
        t = DenseTensor(values, (5,))
        path = str(tmp_path / "v.json")
        write_tensor(path, t)
        np.testing.assert_array_equal(read_tensor(path).data, t.data)


class TestBinaryTensor:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(102)
        t = random_dense(rng, (3, 2, 2))
        path = str(tmp_path / "t.bin")
        write_tensor(path, t, binary=True)
        back = read_tensor(path)
        assert back == t

    def test_square_round_trips_as_even_order_dense(self, tmp_path):
        rng = np.random.default_rng(103)
        x = unmatricize(rng.standard_normal((4, 4)), Shape((2, 2)))
        path = str(tmp_path / "s.bin")
        write_tensor(path, x, binary=True)
        back = read_tensor(path)
        assert isinstance(back, DenseTensor)
        assert back.shape == Shape((2, 2, 2, 2))
        np.testing.assert_array_equal(back.data, x.data)

    def test_magic_detection(self, tmp_path):
        path = tmp_path / "t.bin"
        t = DenseTensor([1.0, 2.0], (2,))
        write_tensor(str(path), t, binary=True)
        assert path.read_bytes().startswith(MAGIC)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor(str(path), DenseTensor([1.0, 2.0], (2,)), binary=True)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FileFormatError):
            read_tensor(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor(str(path), DenseTensor([1.0, 2.0], (2,)), binary=True)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FileFormatError):
            read_tensor(str(path))


class TestSampleSets:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(104)
        s = SampleSet.from_observations([random_dense(rng, (2, 2)) for _ in range(5)])
        path = str(tmp_path / "s.json")
        write_sample_set(path, s, seed=42)
        back = read_sample_set(path)
        assert len(back) == 5
        np.testing.assert_array_equal(back.to_matrix(), s.to_matrix())
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["seed"] == 42
        assert doc["count"] == 5

    def test_bare_array_accepted(self, tmp_path):
        objs = [tensor_to_obj(DenseTensor([float(k), 0.0], (2,))) for k in range(3)]
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(objs))
        s = read_sample_set(str(path))
        assert len(s) == 3
        assert s.shape == Shape((2,))

    def test_empty_set_keeps_shape(self, tmp_path):
        s = SampleSet(shape=Shape((2, 2)), observations=())
        path = str(tmp_path / "empty.json")
        write_sample_set(path, s)
        back = read_sample_set(path)
        assert len(back) == 0
        assert back.shape == Shape((2, 2))

    def test_empty_bare_array_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(FileFormatError):
            read_sample_set(str(path))

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(105)
        s = SampleSet.from_observations([random_dense(rng, (3, 2)) for _ in range(7)])
        path = str(tmp_path / "s.bin")
        write_sample_set(path, s, binary=True)
        back = read_sample_set(path)
        np.testing.assert_array_equal(back.to_matrix(), s.to_matrix())
        assert back.shape == s.shape

    def test_binary_empty(self, tmp_path):
        s = SampleSet(shape=Shape((2,)), observations=())
        path = str(tmp_path / "s.bin")
        write_sample_set(path, s, binary=True)
        back = read_sample_set(path)
        assert len(back) == 0
        assert back.shape == Shape((2,))

    def test_square_observation_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([tensor_to_obj(SquareTensor.identity((2,)))]))
        with pytest.raises(FileFormatError):
            read_sample_set(str(path))


class TestBinaryReaderErrors:
    @staticmethod
    def sample_header(count, dims):
        return (
            MAGIC
            + struct.pack("<Q", count)
            + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims)
        )

    @pytest.mark.parametrize(
        "raw",
        [MAGIC, MAGIC + b"\x02", MAGIC + b"\x02\x03\x00\x00\x00\x01"],
    )
    def test_short_tensor_header(self, tmp_path, raw):
        path = tmp_path / "t.bin"
        path.write_bytes(raw)
        with pytest.raises(FileFormatError, match="header is truncated"):
            read_tensor(str(path))

    @pytest.mark.parametrize(
        "raw",
        [MAGIC + b"\x05\x00", MAGIC + bytes(8), MAGIC + bytes(8) + b"\x02\x01\x00"],
    )
    def test_short_sample_header(self, tmp_path, raw):
        path = tmp_path / "s.bin"
        path.write_bytes(raw)
        with pytest.raises(FileFormatError, match="header is truncated"):
            read_sample_set(str(path))

    def test_huge_count_fails_on_the_length_check(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(self.sample_header(2**40, (2,)) + bytes(16))
        with pytest.raises(FileFormatError, match="truncated"):
            read_sample_set(str(path))

    def test_huge_shape_with_no_observations_rejected(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(self.sample_header(0, (2**32 - 1,) * 3))
        with pytest.raises(FileFormatError, match="too large"):
            read_sample_set(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(self.sample_header(1, (2,)) + bytes(17))
        with pytest.raises(FileFormatError, match="trailing"):
            read_sample_set(str(path))

    def test_non_finite_entry_names_the_observation(self, tmp_path):
        block = np.zeros((5, 3))
        block[3, 1] = np.nan
        block[4, 0] = np.inf
        path = tmp_path / "s.bin"
        path.write_bytes(self.sample_header(5, (3,)) + block.astype("<f8").tobytes())
        with pytest.raises(FileFormatError, match="observation 3 "):
            read_sample_set(str(path))

    def test_non_finite_tensor_entry(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(MAGIC + b"\x01\x02\x00\x00\x00" + np.array([1.0, np.inf]).tobytes())
        with pytest.raises(FileFormatError, match="finite"):
            read_tensor(str(path))

    @settings(max_examples=300, deadline=None, suppress_health_check=FUZZ_FILE)
    @given(tail=st.binary(max_size=64))
    def test_arbitrary_bytes_after_magic(self, tmp_path, tail):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(MAGIC + tail)
        try:
            s = read_sample_set(str(path))
        except FileFormatError:
            return
        assert isinstance(s, SampleSet)
        assert s.to_matrix().shape == (len(s), s.shape.nstar)

    @settings(max_examples=100, deadline=None, suppress_health_check=FUZZ_FILE)
    @given(
        count=st.integers(0, 2**64 - 1),
        dims=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        payload=st.binary(max_size=64),
    )
    def test_arbitrary_sample_headers(self, tmp_path, count, dims, payload):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(self.sample_header(count, dims) + payload)
        try:
            s = read_sample_set(str(path))
        except FileFormatError:
            return
        assert len(s) == count
        assert s.shape.dims == tuple(dims)


class TestJsonSampleErrors:
    def write(self, tmp_path, doc):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def samples_doc(self, rows, **extra):
        doc = {
            "kind": "samples",
            "shape": [2],
            "observations": [tensor_to_obj(DenseTensor(r, (2,))) for r in rows],
        }
        doc.update(extra)
        return doc

    @pytest.mark.parametrize("count", [5, 1, "2", 2.0, True])
    def test_count_must_match(self, tmp_path, count):
        path = self.write(tmp_path, self.samples_doc([[1.0, 2.0], [3.0, 4.0]], count=count))
        with pytest.raises(FileFormatError, match="count"):
            read_sample_set(path)

    def test_matching_or_absent_count_accepted(self, tmp_path):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        assert len(read_sample_set(self.write(tmp_path, self.samples_doc(rows, count=2)))) == 2
        assert len(read_sample_set(self.write(tmp_path, self.samples_doc(rows)))) == 2

    @pytest.mark.parametrize(
        "data",
        [[1.0], [1.0, 2.0, 3.0], [1.0, "x"], [1.0, [2.0]], [1.0, None], [1.0, 10**400],
         [1.0, "1.5"], [1.0, True], [False, 2.0]],
    )
    def test_bad_observation_data(self, tmp_path, data):
        doc = self.samples_doc([[1.0, 2.0]])
        doc["observations"].append({"kind": "tensor", "shape": [2], "data": data})
        with pytest.raises(FileFormatError):
            read_sample_set(self.write(tmp_path, doc))

    def test_over_long_integer_is_a_format_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('[{"kind": "tensor", "shape": [1], "data": [' + "9" * 5001 + "]}]")
        with pytest.raises(FileFormatError, match="not valid JSON"):
            read_sample_set(str(path))
        with pytest.raises(FileFormatError, match="not valid JSON"):
            read_params(str(path))

    @pytest.mark.parametrize("indent", [None, 2], ids=["canonical", "indented"])
    def test_huge_shape_with_no_observations_rejected(self, tmp_path, indent):
        # The same size check as the binary header, before any allocation.
        doc = {"kind": "samples", "shape": [2**32] * 3, "count": 0, "seed": None,
               "observations": []}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc, indent=indent) + "\n")
        with pytest.raises(FileFormatError, match="too large"):
            read_sample_set(str(path))

    def test_non_finite_names_the_observation(self, tmp_path):
        doc = self.samples_doc([[1.0, 2.0], [3.0, 4.0]])
        doc["observations"][1]["data"][0] = 1e400
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        with pytest.raises(FileFormatError, match="observation 1 "):
            read_sample_set(str(path))


TEMPLATE_SHAPES = [(1,), (2, 2), (3, 1, 2)]

# Values whose text is easy to get wrong: signed zeros, subnormals, the
# ends of the float64 range and integer-valued floats.
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e308, -1e308,
               1.7976931348623157e308, 3.0, -(2.0**60)]
template_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_VALUES),
    st.integers(-(2**60), 2**60).map(float),
)


def reference_text(dims, rows, seed=None) -> str:
    # The canonical layout as json.dumps lays out the sample-set object;
    # entries given as Python ints come out as JSON integers.
    obs = [{"kind": "tensor", "shape": list(dims), "data": row} for row in rows]
    doc = {"kind": "samples", "shape": list(dims), "count": len(rows), "seed": seed,
           "observations": obs}
    return json.dumps(doc) + "\n"


def read_outcome(path, general_only=False):
    # What read_sample_set gives: the shape and block bytes, or the
    # exception type and message.  general_only turns the template off.
    off = mock.patch.object(tensorfile, "_template_sample_rows", lambda raw: None)
    with off if general_only else nullcontext():
        try:
            s = read_sample_set(path)
        except Exception as e:
            return type(e), str(e)
    block = s.to_matrix()
    return s.shape, block.shape, block.tobytes()


class TestJsonSampleTemplate:
    @settings(max_examples=150, deadline=None, suppress_health_check=FUZZ_FILE)
    @given(
        dims=st.sampled_from(TEMPLATE_SHAPES),
        count=st.integers(1, 50),
        seed=st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
        data=st.data(),
    )
    def test_template_is_bit_equal_to_general_parse(self, tmp_path, dims, count, seed, data):
        nstar = int(np.prod(dims))
        values = data.draw(st.lists(template_values, min_size=count * nstar,
                                    max_size=count * nstar))
        rows = np.array(values).reshape(count, nstar)
        path = tmp_path / "s.json"
        write_sample_set(str(path), SampleSet._wrap(rows, Shape(dims)), seed=seed)
        raw = path.read_bytes()
        assert raw.decode() == reference_text(dims, rows.tolist(), seed)
        parsed = tensorfile._template_sample_rows(raw)
        assert parsed is not None
        assert parsed[1] == Shape(dims)
        assert parsed[0].tobytes() == rows.tobytes()
        assert read_outcome(str(path)) == read_outcome(str(path), general_only=True)
        # Integer-valued entries written as JSON integers.
        as_ints = [[int(v) if v.is_integer() and abs(v) < 2**63 else v for v in row]
                   for row in rows.tolist()]
        path.write_text(reference_text(dims, as_ints, seed))
        assert tensorfile._template_sample_rows(path.read_bytes()) is not None
        assert read_outcome(str(path)) == read_outcome(str(path), general_only=True)

    @pytest.mark.parametrize("dims", TEMPLATE_SHAPES + [(2,), (4, 3)])
    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_writer_output_never_takes_the_general_parse(self, tmp_path, monkeypatch,
                                                         dims, count):
        rows = np.random.default_rng(count).standard_normal((count, int(np.prod(dims))))
        path = str(tmp_path / "s.json")
        write_sample_set(path, SampleSet._wrap(rows, Shape(dims)), seed=count)

        def refuse(raw):
            raise AssertionError("the canonical layout reached the general parse")

        monkeypatch.setattr(tensorfile, "_parse_json", refuse)
        back = read_sample_set(path)
        assert back.shape == Shape(dims)
        assert back.to_matrix().tobytes() == rows.tobytes()

    CANONICAL = reference_text((2,), [[1.5, -2.0], [3.0, 4.25], [0.5, 6.0]], 7)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("[1.5", "[01.5"),                       # leading zero
            ("[1.5", "[NaN"),
            ("[1.5", "[Infinity"),
            ("[1.5", "[1e999"),
            ("[1.5", "[-0"),
            ("[1.5", "[true"),
            ("[1.5", "[null"),
            ("[1.5", '["1.5"'),
            ("4.25]", "4.25]]"),                     # stray brackets
            ("[3.0", "[[3.0"),
            ("3.0, 4.25", "[3.0], 4.25"),
            ("3.0, 4.25", "3.0, [4.25"),
            ('"count": 3, ', '"count": 3, "count": 2, '),  # duplicate keys
            ('"seed": 7, ', '"seed": 7, "seed": 8, '),
            ('"data": [3.0, 4.25]}', '"data": [3.0, 4.25], "data": [1.0, 2.0]}'),
            ('"count": 3', '"count": 03'),
            ('"count": 3', '"count": 2'),
            ('"count": 3', '"count": 4'),
            ('"seed": 7', '"seed": -0'),
            ('"seed": 7', '"seed": 7.0'),
            ('"shape": [2], "count"', '"shape": [02], "count"'),
            ('"shape": [2], "count"', '"shape": [3], "count"'),
            ("]}\n", "]}"),                          # other whitespace
            ("]}\n", "]} \n\n"),
            ("]}\n", "]}\x0c"),                     # not JSON whitespace
            ("[1.5", "[\udcff1.5"),                  # byte 0xff: not UTF-8
            ("[1.5, -2.0]", "[1.5,-2.0]"),
            ("}, {", "},{"),
            ('{"kind": "samples", ', '{ "kind": "samples", '),
            ("7, \"observations\"", "7,\"observations\""),
            (                                        # ragged observations
                '[1.5, -2.0]}, {"kind": "tensor", "shape": [2], "data": [3.0, 4.25]',
                '[1.5, -2.0, 3.0]}, {"kind": "tensor", "shape": [2], "data": [4.25]',
            ),
        ],
    )
    def test_named_mutations_match_the_general_parse(self, tmp_path, old, new):
        assert old in self.CANONICAL
        path = tmp_path / "s.json"
        path.write_bytes(self.CANONICAL.replace(old, new, 1).encode("utf-8", "surrogateescape"))
        assert read_outcome(str(path)) == read_outcome(str(path), general_only=True)

    @pytest.mark.parametrize("bad", ['"1.5"', "true", "false", "null"])
    def test_non_number_entry_is_refused_on_both_paths(self, tmp_path, bad):
        # The template hands a non-number to the general parse, which names it.
        path = tmp_path / "s.json"
        path.write_text(self.CANONICAL.replace("4.25", bad, 1))
        assert tensorfile._template_sample_rows(path.read_bytes()) is None
        outcome = read_outcome(str(path))
        assert outcome == (FileFormatError, "tensor data must be a flat list of numbers")
        assert outcome == read_outcome(str(path), general_only=True)

    def test_nested_one_cell_data_matches_the_general_parse(self, tmp_path):
        # Every observation's data wrapped once more still has count x 1
        # numbers, but as a count x 1 nest, which the general reader refuses.
        text = reference_text((1,), [[[1.5]], [[2.0]]])
        path = tmp_path / "s.json"
        path.write_text(text)
        outcome = read_outcome(str(path))
        assert outcome[0] is FileFormatError
        assert outcome == read_outcome(str(path), general_only=True)

    def test_key_order_and_bare_array_match_the_general_parse(self, tmp_path):
        doc = json.loads(self.CANONICAL)
        path = tmp_path / "s.json"
        for text in (
            json.dumps(dict(reversed(list(doc.items())))),
            json.dumps(doc["observations"]),
            json.dumps(doc, indent=1),
        ):
            path.write_text(text)
            general = read_outcome(str(path), general_only=True)
            assert general[0] == Shape((2,))
            assert read_outcome(str(path)) == general

    @settings(max_examples=400, deadline=None, suppress_health_check=FUZZ_FILE)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "replace"]),
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from(list('0123456789-+.eE,:[]{}" \nNaIfntrul') + ["NaN"]),
            ),
            min_size=1,
            max_size=2,
        )
    )
    def test_random_mutations_match_the_general_parse(self, tmp_path, edits):
        text = self.CANONICAL
        for op, where, char in edits:
            k = int(where * len(text))
            if op == "insert":
                text = text[:k] + char + text[k:]
            elif op == "delete":
                text = text[:k] + text[k + 1:]
            else:
                text = text[:k] + char + text[k + 1:]
        path = tmp_path / "s.json"
        path.write_text(text)
        assert read_outcome(str(path)) == read_outcome(str(path), general_only=True)


@pytest.fixture
def chunked(monkeypatch):
    # Three cores and no floor: every file of three or more observations
    # is formatted and parsed in three chunks, two of them in children.
    monkeypatch.setattr(tensorfile, "_cores", lambda: 3)
    monkeypatch.setattr(tensorfile, "_MIN_CHUNK_VALUES", 1)


def count_forks(monkeypatch):
    forks = []
    exact = tensorfile._fork

    def counted(work, part):
        forks.append(part)
        return exact(work, part)

    monkeypatch.setattr(tensorfile, "_fork", counted)
    return forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestJsonSampleChunks:
    LONG = reference_text((2,), [[1.5, -2.0], [3.0, 4.25], [0.5, 6.0], [7.0, -8.5],
                                 [9.25, 10.0], [-11.0, 12.5]], 7)

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (3, 1, 2)])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 50])
    def test_bytes_are_the_same_with_one_and_k_chunks(self, tmp_path, monkeypatch,
                                                      dims, count):
        rows = np.random.default_rng(count).standard_normal((count, int(np.prod(dims))))
        s = SampleSet._wrap(rows, Shape(dims))
        monkeypatch.setattr(tensorfile, "_cores", lambda: 1)
        write_sample_set(str(tmp_path / "one.json"), s, seed=count)
        monkeypatch.setattr(tensorfile, "_cores", lambda: 3)
        monkeypatch.setattr(tensorfile, "_MIN_CHUNK_VALUES", 1)
        forks = count_forks(monkeypatch)
        write_sample_set(str(tmp_path / "k.json"), s, seed=count)
        assert len(forks) == max(0, min(3, count) - 1)
        one = (tmp_path / "one.json").read_bytes()
        assert (tmp_path / "k.json").read_bytes() == one
        assert one.decode() == reference_text(dims, rows.tolist(), count)
        parsed = tensorfile._template_sample_rows(one)
        assert parsed is not None
        assert parsed[0].tobytes() == rows.tobytes()
        assert no_child_left()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("[9.25", "[true"),
            ("[9.25", "[1e999"),
            ("[9.25", "[09.25"),
            ("10.0]", "10.0]]"),
            ("[9.25, 10.0]", "[9.25, 10.0, 1.0]"),
            ("[-11.0, 12.5]", "[-11.0]"),
        ],
    )
    def test_malformed_second_half_goes_to_the_general_reader(self, tmp_path, monkeypatch,
                                                              chunked, old, new):
        assert self.LONG.index(old) > len(self.LONG) // 2
        path = tmp_path / "s.json"
        path.write_text(self.LONG.replace(old, new, 1))
        forks = count_forks(monkeypatch)
        outcome = read_outcome(str(path))
        assert len(forks) == 2
        assert outcome[0] in (FileFormatError, ShapeError)
        assert outcome == read_outcome(str(path), general_only=True)
        assert no_child_left()

    def test_a_childs_mismatch_is_not_parsed_again(self, tmp_path, monkeypatch, chunked):
        # The bad entry is in the last child's chunk.  A child's calls land
        # in its own copy of the list, so only the parent's are counted.
        raw = self.LONG.replace("[9.25", "[true", 1).encode()
        calls = []
        exact = tensorfile._parse_observations

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(tensorfile, "_parse_observations", counted)
        assert tensorfile._template_sample_rows(raw) is None
        assert len(calls) == 1
        assert no_child_left()

    @settings(max_examples=100, deadline=None, suppress_health_check=FUZZ_FILE)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "replace"]),
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from(list("0123456789-+.eE,:[]{}\" \nNaIfntrul")),
            ),
            min_size=1,
            max_size=2,
        )
    )
    def test_random_mutations_match_the_general_parse(self, tmp_path, chunked, edits):
        text = self.LONG
        for op, where, char in edits:
            k = int(where * len(text))
            if op == "insert":
                text = text[:k] + char + text[k:]
            elif op == "delete":
                text = text[:k] + text[k + 1:]
            else:
                text = text[:k] + char + text[k + 1:]
        path = tmp_path / "s.json"
        path.write_text(text)
        assert read_outcome(str(path)) == read_outcome(str(path), general_only=True)

    @pytest.mark.parametrize("side", ["parent", "child"])
    @pytest.mark.parametrize("codec", ["write", "read"])
    def test_no_child_is_left_after_an_exception(self, tmp_path, monkeypatch, chunked,
                                                 side, codec):
        rows = np.random.default_rng(5).standard_normal((9, 4))
        s = SampleSet._wrap(rows, Shape((2, 2)))
        path = str(tmp_path / "s.json")
        write_sample_set(path, s, seed=5)
        reference = (tmp_path / "s.json").read_bytes()
        parent = os.getpid()
        name = "_observations_text" if codec == "write" else "_parse_observations"
        exact = getattr(tensorfile, name)

        def failing(*args):
            if (os.getpid() == parent) == (side == "parent"):
                raise RuntimeError("chunk failed")
            return exact(*args)

        monkeypatch.setattr(tensorfile, name, failing)
        run = (lambda: write_sample_set(path, s, seed=5)) if codec == "write" else (
            lambda: read_sample_set(path))
        if side == "parent":
            with pytest.raises(RuntimeError, match="chunk failed"):
                run()
        else:
            # The parent redoes the chunk of a child that raised, so the
            # write and the read both finish on the chunked path.
            back = run()
            if codec == "read":
                assert back.to_matrix().tobytes() == rows.tobytes()
            assert (tmp_path / "s.json").read_bytes() == reference
        assert no_child_left()

    def test_without_fork_the_codec_runs_in_one_process(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(tensorfile, "_MIN_CHUNK_VALUES", 1)
        assert tensorfile._cores() == 1
        rows = np.random.default_rng(6).standard_normal((9, 4))
        path = str(tmp_path / "s.json")
        write_sample_set(path, SampleSet._wrap(rows, Shape((2, 2))), seed=6)
        assert read_sample_set(path).to_matrix().tobytes() == rows.tobytes()


class TestParamsFiles:
    def test_dense_round_trip(self, tmp_path):
        rng = np.random.default_rng(106)
        loc = random_dense(rng, (2, 2))
        m = rng.standard_normal((4, 4))
        scale = unmatricize(m @ m.T + np.eye(4), Shape((2, 2)))
        path = str(tmp_path / "p.json")
        write_params(path, loc, scale)
        loc2, scale2 = read_params(path)
        assert loc2 == loc
        assert scale2 == scale

    def test_kronecker_round_trip(self, tmp_path):
        loc = DenseTensor.zeros((2, 3))
        f = KroneckerFactors((np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0])))
        path = str(tmp_path / "p.json")
        write_params(path, loc, f)
        loc2, scale2 = read_params(path)
        assert loc2 == loc
        assert isinstance(scale2, KroneckerFactors)
        for a, b in zip(scale2.factors, f.factors):
            np.testing.assert_array_equal(a, b)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"location": tensor_to_obj(DenseTensor([1.0], (1,)))}))
        with pytest.raises(FileFormatError):
            read_params(str(path))

    @pytest.mark.parametrize("factors", [[], None, "x"])
    def test_kronecker_needs_a_list_of_factors(self, tmp_path, factors):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "location": tensor_to_obj(DenseTensor([1.0], (1,))),
            "scale": {"kind": "kronecker", "factors": factors},
        }))
        with pytest.raises(FileFormatError, match="non-empty 'factors' list"):
            read_params(str(path))

    def test_scale_must_be_square_or_kronecker(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "location": tensor_to_obj(DenseTensor([1.0], (1,))),
                    "scale": tensor_to_obj(DenseTensor([1.0], (1,))),
                }
            )
        )
        with pytest.raises(FileFormatError):
            read_params(str(path))
