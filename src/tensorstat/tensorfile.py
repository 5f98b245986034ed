"""Tensor file I/O: human-readable JSON plus a compact binary twin.

JSON formats (UTF-8, one object per file):

* single tensor   ``{"kind": "tensor", "shape": [...], "data": [...]}``
* square tensor   ``{"kind": "square2d", "rowShape": [...], "shape": [...],
  "data": [...]}`` with ``data`` of length ``nstar**2``; ``shape`` may be
  left out, and when present must be ``rowShape`` twice
* sample set      ``{"kind": "samples", "shape": [...], "count": N,
  "seed": <int or null>, "observations": [<tensor objects>]}``; on read
  ``count``, when present, must match the observations, and a bare JSON
  array of tensor objects is also accepted.  The writer emits one
  canonical layout (``json.dumps`` spacing, keys in the order above); the
  reader parses a file in that layout by template, with one
  ``json.loads`` over the numbers alone, and reads any other valid JSON
  as a whole document, to the same result
* parameters      ``{"location": <tensor object>, "scale": <square2d object
  or {"kind": "kronecker", "factors": [<order-2 tensor objects>]}>}``

All data arrays are column-major and numbers serialize as shortest
round-trip decimals, so write-then-read is bit-exact.  Every data entry
must be a JSON number: strings, ``true``/``false``, ``null`` and nested
arrays are refused, as are integers beyond the float64 range.

Binary formats (little-endian, magic ``TST1``):

* single tensor   magic, u8 order, u32 dims, f64 payload
* sample set      magic, u64 count, u8 order, u32 dims, ``count``
  contiguous f64 payloads (the sample set's ``N x nstar`` block, row by
  row)

Readers check that the file length matches its header before touching
the payload, and reject non-finite entries.

The binary header carries no kind tag; the two layouts are told apart by
the reading entry point, not by the bytes.  The path ``"-"`` reads stdin
or writes stdout.
"""

from __future__ import annotations

import json
import os
import re
import signal
import struct
import sys
from typing import Callable, Optional, Union

import numpy as np

from .errors import FileFormatError, ShapeError
from .linalg import KroneckerFactors
from .stats import SampleSet
from .tensor_core import DenseTensor, Shape, SquareTensor

__all__ = [
    "MAGIC",
    "read_tensor",
    "write_tensor",
    "read_sample_set",
    "write_sample_set",
    "read_params",
    "write_params",
    "tensor_to_obj",
    "tensor_from_obj",
]

MAGIC = b"TST1"

AnyTensor = Union[DenseTensor, SquareTensor]

# Fewest numbers one core formats or parses in a JSON sample file.  A fork,
# pipe and reap round trip costs about 4 ms (median of 30, 3.9-4.3 ms
# quartiles) in the CLI process, with numpy imported, on a 2-core x86-64
# Linux host with Python 3.11; formatting takes about 1.8 us a number and
# parsing about 1.0 us.  A chunk of 2**15 numbers is 30-60 ms of work, so
# a file is split only where each chunk gets at least this many (at 2x2,
# 8192 rows).
_MIN_CHUNK_VALUES = 1 << 15
# The exit status of a forked child whose work gave None.
_GAVE_NONE = 2


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, *chunks) -> None:
    # Chunks are bytes or C-contiguous arrays, written in order, uncopied.
    if path == "-":
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()
        return
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _parse_json(raw: bytes):
    # ValueError covers undecodable bytes, malformed JSON and integer
    # literals beyond Python's digit limit.
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as e:
        raise FileFormatError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise FileFormatError("JSON is nested too deeply to read") from None


def _require_shape(dims) -> Shape:
    # Every reader's shape check, before anything is allocated: Shape's own
    # rule (one or more integers >= 1, no bools), and a float64 tensor that
    # can be addressed.
    try:
        shape = Shape(dims)
    except ShapeError as e:
        raise FileFormatError(f"invalid tensor shape: {e}") from None
    if 8 * shape.nstar > sys.maxsize:
        raise FileFormatError(f"tensor shape {shape} is too large")
    return shape


def tensor_to_obj(t: AnyTensor) -> dict:
    """JSON-ready dict for a tensor, with column-major data."""
    if isinstance(t, SquareTensor):
        head = {"kind": "square2d", "rowShape": list(t.row_shape.dims)}
    else:
        head = {"kind": "tensor"}
    return {**head, "shape": list(t.array.shape), "data": t.data.tolist()}


def _tensor_fields(obj) -> tuple[str, Shape, list]:
    # The header checks of every JSON tensor object: a dict, a data list, a
    # known kind and its shape (for square2d the row shape, and the full
    # shape, when given, must be the row shape twice).  The data is
    # returned as parsed, for one conversion by the caller.
    if not isinstance(obj, dict):
        raise FileFormatError("tensor object must be a JSON object")
    kind = obj.get("kind", "tensor")
    data = obj.get("data")
    if not isinstance(data, list):
        raise FileFormatError("tensor object must carry a 'data' array")
    if kind == "tensor":
        return kind, _require_shape(obj.get("shape")), data
    if kind != "square2d":
        raise FileFormatError(f"unknown tensor kind {kind!r}")
    row = obj.get("rowShape")
    if row is None:
        raise FileFormatError("square2d tensor objects require a 'rowShape' field")
    row_shape = _require_shape(row)
    if "shape" in obj and _require_shape(obj["shape"]).dims != row_shape.dims * 2:
        raise FileFormatError(
            f"square2d shape {obj['shape']!r} must be the rowShape twice, "
            f"{list(row_shape.dims) * 2!r}"
        )
    return kind, row_shape, data


def _json_numbers(values: list) -> np.ndarray:
    # The one conversion of JSON data to float64.  json.loads gives a JSON
    # number as an int or a float; anything else (bool, a subclass of int,
    # str, None, list or dict) is refused by its exact type.
    if not {int, float}.issuperset(map(type, values)):
        raise FileFormatError("tensor data must be a flat list of numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError as e:
        raise FileFormatError(f"tensor data must be finite numbers: {e}") from None


def tensor_from_obj(obj) -> AnyTensor:
    """Rebuild a tensor from its JSON dict form."""
    kind, shape, data = _tensor_fields(obj)
    values = _json_numbers(data)
    try:
        return (DenseTensor if kind == "tensor" else SquareTensor)(values, shape)
    except ValueError as e:  # the length and finiteness checks
        raise FileFormatError(str(e)) from None


def _write_binary(path: str, dims: tuple[int, ...], rows, count: Optional[int] = None) -> None:
    # Either binary layout, the twin of _read_binary: magic, the sample
    # set's u64 count (none for a single tensor), u8 order, u32 dims, and
    # the column-major rows as one contiguous <f8 payload.
    counted = b"" if count is None else struct.pack("<Q", count)
    header = MAGIC + counted + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
    _write_bytes(path, header, np.ascontiguousarray(rows, dtype="<f8"))


def _unpack(fmt: str, raw: bytes, offset: int) -> tuple[tuple, int]:
    end = offset + struct.calcsize(fmt)
    if end > len(raw):
        raise FileFormatError(f"binary header is truncated: {len(raw)} bytes")
    return struct.unpack_from(fmt, raw, offset), end


def _require_finite_rows(rows: np.ndarray) -> np.ndarray:
    # Names the first row (observation) with a NaN or Inf entry.
    finite = np.isfinite(rows)
    if not finite.all():
        k = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise FileFormatError(f"observation {k} has a non-finite entry (NaN or Inf)")
    return rows


def _read_binary(raw: bytes, counted: bool) -> tuple[np.ndarray, Shape]:
    # Either binary layout as a count x nstar block of finite entries; a
    # single tensor has no count field and is one row.  The file length is
    # checked against the header before anything is allocated, and the
    # payload is copied once because the header leaves it misaligned for
    # float64.
    offset, count = len(MAGIC), 1
    if counted:
        (count,), offset = _unpack("<Q", raw, offset)
    (order,), offset = _unpack("<B", raw, offset)
    dims, offset = _unpack(f"<{order}I", raw, offset)
    shape = _require_shape(dims)
    nstar = shape.nstar
    expected = offset + 8 * count * nstar
    if len(raw) < expected:
        raise FileFormatError(f"binary payload is truncated: {len(raw)} bytes, expected {expected}")
    if len(raw) > expected:
        raise FileFormatError(f"binary file has {len(raw) - expected} trailing bytes")
    values = np.frombuffer(raw, dtype="<f8", count=count * nstar, offset=offset)
    rows = np.array(values, dtype=np.float64).reshape(count, nstar)
    return _require_finite_rows(rows), shape


def write_tensor(path: str, t: AnyTensor, binary: bool = False) -> None:
    """Serialize one tensor; JSON by default, binary on request."""
    if binary:
        return _write_binary(path, t.array.shape, t.data)
    _write_bytes(path, (json.dumps(tensor_to_obj(t)) + "\n").encode("utf-8"))


def read_tensor(path: str) -> AnyTensor:
    """Read one tensor, auto-detecting JSON versus binary.

    Binary files carry no kind tag and always come back as
    :class:`DenseTensor`; callers needing square semantics reinterpret
    even-order results themselves.
    """
    raw = _read_bytes(path)
    if raw.startswith(MAGIC):
        return DenseTensor._wrap(*_read_binary(raw, counted=False))
    return tensor_from_obj(_parse_json(raw))


def write_sample_set(
    path: str, s: SampleSet, seed: Optional[int] = None, binary: bool = False
) -> None:
    """Serialize a sample set; the JSON header records the seed when given."""
    rows = s.to_matrix()
    if binary:
        return _write_binary(path, s.shape.dims, rows, len(s))
    dims = list(s.shape.dims)
    header = json.dumps({
        "kind": "samples",
        "shape": dims,
        "count": len(s),
        "seed": int(seed) if seed is not None else None,
    })
    start = _observation_start(dims)
    chunks = _split_rows(rows)
    texts = _on_every_core(lambda chunk: _observations_text(chunk, start), chunks)
    head = (header[:-1] + ', "observations": [').encode("utf-8")
    _write_bytes(path, head, b", ".join(texts), b"]}\n")


def _observations_text(rows: np.ndarray, start: str) -> bytes:
    # Observation objects exactly as json.dumps lays out a list of them,
    # without the list's brackets, from one dumps of the rows: every float
    # passes through the same float.__repr__.
    if not len(rows):
        return b""
    data = json.dumps(rows.tolist())
    return (start + data[2:-2].replace("], [", "]}, " + start) + "]}").encode("utf-8")


def _cores() -> int:
    # Cores this process may run on; 1 where it cannot fork.
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_count(values: int) -> int:
    return max(1, min(_cores(), values // _MIN_CHUNK_VALUES))


def _split_rows(rows: np.ndarray) -> list:
    # Contiguous non-empty row blocks (one for no rows), one per core that
    # gets _MIN_CHUNK_VALUES.
    k = max(1, min(_chunk_count(rows.size), len(rows)))
    bounds = [len(rows) * i // k for i in range(k + 1)]
    return [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _fork(work: Callable, part):
    # A child that sends work(part) through a pipe and ends with os._exit:
    # status 0 when it sent bytes, _GAVE_NONE for None, 1 when it raised.
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            out = work(part)
            if out is None:
                status = _GAVE_NONE
            else:
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(out)
                status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _on_every_core(work: Callable, parts: list) -> list:
    """``[work(part) for part in parts]``, with every part after the first forked.

    ``work`` returns bytes, or None for a part it cannot do.  The parent
    does the first part while the children do the rest; it then reads the
    children's results in order.  A child's None is final; the part of a
    child that raised, the parent does itself.  Every child is reaped,
    also when the parent raises.
    """
    pending = []
    try:
        for part in parts[1:]:
            pending.append(_fork(work, part))
        results = [work(parts[0])]
        for part in parts[1:]:
            pid, pipe = pending[0]
            data = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pending.pop(0)
            results.append(None if code == _GAVE_NONE else work(part) if code else data)
        return results
    finally:
        for pid, pipe in pending:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _observation_start(dims: list) -> str:
    # The text of one observation object up to and including the "[" that
    # opens its data, as json.dumps writes it.
    return '{"kind": "tensor", "shape": ' + json.dumps(dims) + ', "data": ['


_SAMPLE_HEADER = re.compile(
    r'\{"kind": "samples", "shape": \[(?P<shape>[1-9][0-9]*(?:, [1-9][0-9]*)*)\], '
    r'"count": (?P<count>0|[1-9][0-9]*), "seed": (?:-?(?:0|[1-9][0-9]*)|null), '
    r'"observations": \['
)


def _template_sample_rows(raw: bytes) -> Optional[tuple[np.ndarray, Shape]]:
    """The block of a JSON sample file in the layout :func:`write_sample_set` emits.

    Matches the header against that layout, cuts the observations on their
    exact separator into one contiguous chunk per core, and parses each
    chunk with one ``json.loads`` of a flat number list, every chunk after
    the first in a forked child; each observation must have ``nstar - 1``
    commas and the file ``count`` observations.  Returns None on any
    mismatch, a non-number entry included, so every other document, valid
    or not, goes to the general reader and gets its result or error.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    m = _SAMPLE_HEADER.match(text)
    if m is None or not text.endswith("]}\n"):
        return None
    try:
        shape = _require_shape([int(n) for n in m["shape"].split(", ")])
    except (ValueError, RecursionError):
        return None
    count, nstar = int(m["count"]), shape.nstar
    if count == 0:
        return (np.empty((0, nstar)), shape) if len(text) == m.end() + 3 else None
    start = _observation_start(list(shape.dims))
    lo, hi = m.end() + len(start), len(text) - len("]}]}\n")
    if not (lo <= hi and text.startswith(start, m.end()) and text.endswith("]}]}\n")):
        return None
    separator = "]}, " + start
    spans = _split_text(text, lo, hi, separator, _chunk_count(count * nstar))
    blocks = _on_every_core(
        lambda span: _parse_observations(text[span[0]:span[1]], separator, nstar), spans
    )
    if any(b is None for b in blocks):
        return None
    flat = np.frombuffer(b"".join(blocks), dtype=np.float64)
    if flat.size != count * nstar:
        return None
    return flat.reshape(count, nstar), shape


def _split_text(text: str, lo: int, hi: int, separator: str, k: int) -> list:
    # Up to k contiguous (start, end) spans of text[lo:hi], cut at the
    # first separator after each k-th of the way, the separators left out.
    spans, a = [], lo
    for i in range(1, k):
        cut = text.find(separator, max(a, lo + (hi - lo) * i // k), hi)
        if cut < 0:
            break
        spans.append((a, cut))
        a = cut + len(separator)
    spans.append((a, hi))
    return spans


def _parse_observations(chunk: str, separator: str, nstar: int) -> Optional[bytes]:
    # The float64 bytes of separator-joined observation data lists, each
    # with nstar - 1 commas; None on any mismatch.
    observations = chunk.split(separator)
    if any(c.count(",") != nstar - 1 for c in observations):
        return None
    try:
        return _json_numbers(json.loads("[" + ", ".join(observations) + "]")).tobytes()
    except (ValueError, RecursionError):
        return None


def _json_sample_rows(items: list, shape: Optional[Shape]) -> tuple[np.ndarray, Shape]:
    # Check each observation object's header, then build the N x nstar
    # block with one conversion over all the data lists.  Without a
    # declared shape the first observation's shape is taken.
    rows = []
    for k, item in enumerate(items):
        kind, item_shape, data = _tensor_fields(item)
        if kind != "tensor":
            raise FileFormatError("sample observations must be plain tensors")
        if shape is None:
            shape = item_shape
        if item_shape != shape:
            raise ShapeError(f"observation {k} has shape {item_shape}, expected {shape}")
        if len(data) != shape.nstar:
            raise FileFormatError(
                f"observation {k} has {len(data)} entries, expected {shape.nstar}"
            )
        rows.append(data)
    block = _json_numbers([v for data in rows for v in data])
    return _require_finite_rows(block.reshape(len(rows), shape.nstar)), shape


def read_sample_set(path: str) -> SampleSet:
    """Read a sample set: binary, JSON object form, or bare JSON array.

    A JSON object's ``count``, when present, must equal the number of
    observations it holds.
    """
    raw = _read_bytes(path)
    if raw.startswith(MAGIC):
        return SampleSet._wrap(*_read_binary(raw, counted=True))
    parsed = _template_sample_rows(raw)
    if parsed is not None:
        rows, shape = parsed
        return SampleSet._wrap(_require_finite_rows(rows), shape)
    doc = _parse_json(raw)
    if isinstance(doc, dict):
        if doc.get("kind") != "samples":
            raise FileFormatError("expected a sample-set object or a JSON array")
        shape = _require_shape(doc.get("shape"))
        items = doc.get("observations")
        if not isinstance(items, list):
            raise FileFormatError("sample-set object must carry an 'observations' array")
        count = doc.get("count")
        if count is not None and (type(count) is not int or count != len(items)):
            raise FileFormatError(
                f"sample-set count {count!r} does not match its {len(items)} observations"
            )
    elif isinstance(doc, list):
        if not doc:
            raise FileFormatError(
                "a bare empty sample array carries no shape; use the object form"
            )
        items = doc
        shape = None
    else:
        raise FileFormatError("sample file must hold a JSON object or array")
    rows, shape = _json_sample_rows(items, shape)
    return SampleSet._wrap(rows, shape)


def write_params(
    path: str, location: DenseTensor, scale: Union[SquareTensor, KroneckerFactors]
) -> None:
    """Serialize distribution parameters (location plus scale spec)."""
    if isinstance(scale, KroneckerFactors):
        scale_obj = {
            "kind": "kronecker",
            "factors": [tensor_to_obj(DenseTensor.from_array(f)) for f in scale.factors],
        }
    else:
        scale_obj = tensor_to_obj(scale)
    obj = {"location": tensor_to_obj(location), "scale": scale_obj}
    _write_bytes(path, (json.dumps(obj) + "\n").encode("utf-8"))


def read_params(path: str) -> tuple[DenseTensor, Union[SquareTensor, KroneckerFactors]]:
    """Read distribution parameters written by :func:`write_params`."""
    doc = _parse_json(_read_bytes(path))
    if not isinstance(doc, dict) or "location" not in doc or "scale" not in doc:
        raise FileFormatError("params file must carry 'location' and 'scale'")
    location = tensor_from_obj(doc["location"])
    if not isinstance(location, DenseTensor):
        raise FileFormatError("params location must be a plain tensor")
    sc = doc["scale"]
    if isinstance(sc, dict) and sc.get("kind") == "kronecker":
        raw_factors = sc.get("factors")
        if not isinstance(raw_factors, list) or not raw_factors:
            raise FileFormatError("kronecker scale must carry a non-empty 'factors' list")
        factors = []
        for fobj in raw_factors:
            ft = tensor_from_obj(fobj)
            if not isinstance(ft, DenseTensor) or ft.order != 2:
                raise FileFormatError("kronecker factors must be order-2 tensors")
            factors.append(ft.array)
        return location, KroneckerFactors(tuple(factors))
    scale = tensor_from_obj(sc)
    if not isinstance(scale, SquareTensor):
        raise FileFormatError("params scale must be a square2d tensor or kronecker factors")
    return location, scale
