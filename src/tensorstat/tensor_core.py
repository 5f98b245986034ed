"""Dense order-D tensors under one fixed column-major linearization.

Everything in this package leans on a single storage convention: the
entries of an order-D tensor are linearized with the *first* index varying
fastest.  ``vec`` flattens in that order, and an order-2D tensor whose two
index blocks share the same dimension lengths reshapes to an
``nstar x nstar`` matrix (``matricize``) whose rows enumerate the first
block and whose columns enumerate the second block, both in the same
column-major order.  Determinants, covariance tensors and densities built
downstream are mutually consistent only because these two maps share the
convention, so it is fixed here once and never re-derived: in ``_wrap``
(entries to a tensor), ``_pair`` (results over two tensors' cells),
``_row_blocks`` and ``_multi_index`` (vec rows and positions to cells),
``_square_row_shape`` (index blocks), ``_reshape_each`` (stacks), and
``_mode_product`` and ``_kron_stack`` (per-mode factors applied to vec rows,
and assembled; kept apart, so the density and its oracle share no code).

D=1 is fully supported (tensors are vectors, square tensors are matrices),
which makes the classical matrix and multivariate results special cases of
the general ones.  Order-0 tensors (scalars) are rejected at construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import ShapeError

__all__ = [
    "Shape",
    "DenseTensor",
    "SquareTensor",
    "as_shape",
    "vec",
    "matricize",
    "unmatricize",
    "transpose2d",
    "add",
    "scale",
    "outer",
    "contract_product",
    "double_dot_quadratic",
]

ShapeLike = Union["Shape", Sequence[int]]


def _integer(name: str, value) -> int:
    # The package's integer rule: operator.index takes Python and numpy
    # integers and refuses the floats and strings int() would truncate or
    # parse; bool is an int, so it is refused by name.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Shape:
    """Ordered dimension lengths ``n1 .. nD`` of an order-D tensor.

    ``nstar`` is the total entry count, which is also the length of any
    conforming vectorization.  Shapes compare by exact equality of the
    dimension list; there is no broadcasting anywhere in the package.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(_integer("dims", n) for n in self.dims)
        except (TypeError, ValueError):
            raise ShapeError(
                f"dims must be a sequence of integers, got {self.dims!r}"
            ) from None
        if len(dims) == 0:
            raise ShapeError(
                "order must be at least 1; order-0 (scalar) shapes are not supported"
            )
        if any(n < 1 for n in dims):
            raise ShapeError(f"every dimension length must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def order(self) -> int:
        """Number of indices D."""
        return len(self.dims)

    @property
    def nstar(self) -> int:
        """Product of the dimension lengths."""
        return math.prod(self.dims)

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __str__(self) -> str:
        return "x".join(str(n) for n in self.dims)


def as_shape(shape: ShapeLike) -> Shape:
    """Coerce a Shape or a plain sequence of dimension lengths to a Shape."""
    if isinstance(shape, Shape):
        return shape
    return Shape(tuple(shape))


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("tensor entries must be finite (no NaN or Inf)")


class _Tensor:
    """Storage and arithmetic shared by :class:`DenseTensor` and :class:`SquareTensor`.

    The :class:`Shape` lives in ``_shape``, behind a read-only property of
    each subclass; ``_shape_label`` is how error messages call it.
    Arithmetic and equality take two tensors of the same kind only; mixing
    kinds returns ``NotImplemented``.
    """

    __slots__ = ("_array", "_shape")
    _shape_label = "shape"
    # Index blocks of the stored array: its dims are the Shape's, repeated.
    _index_blocks = 1

    @classmethod
    def _wrap(cls, values, shape: Shape):
        # Internal, unvalidated: adopt column-major entries, as a view when it can.
        t = object.__new__(cls)
        t._adopt(values, shape)
        return t

    def _adopt(self, values, shape: Shape) -> None:
        # The one place column-major entries, held as the flat vec, a square
        # tensor's matricization or the multi-index array, become F-order.
        dims = shape.dims * self._index_blocks
        array = np.asfortranarray(np.reshape(values, dims, order="F"), dtype=np.float64)
        array.flags.writeable = False
        self._array = array
        self._shape = shape

    def _adopt_flat(self, data, shape: Shape, hint: str) -> None:
        # Constructor body: copy flat column-major data, validate, adopt.
        flat = np.array(data, dtype=np.float64, copy=True)
        if flat.ndim != 1:
            raise ShapeError(
                f"data must be a flat sequence, got {flat.ndim} dimensions; use {hint}"
            )
        expected = shape.nstar ** self._index_blocks
        if flat.size != expected:
            raise ShapeError(
                f"data length {flat.size} does not match {self._shape_label} {shape} "
                f"(expected {expected} entries)"
            )
        _require_finite(flat)
        self._adopt(flat, shape)

    @property
    def array(self) -> np.ndarray:
        """Read-only multi-dimensional view of the entries."""
        return self._array

    @property
    def data(self) -> np.ndarray:
        """Read-only column-major flat view of the entries."""
        return self._array.reshape(-1, order="F")

    @property
    def order(self) -> int:
        """Number of indices: D for a tensor, 2D for a square tensor."""
        return self._array.ndim

    def __getitem__(self, index):
        return self._array[index]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._shape == other._shape and np.array_equal(self._array, other._array)

    __hash__ = None

    def _combine(self, other, op, verb: str):
        if type(other) is not type(self):
            return NotImplemented
        if other._shape != self._shape:
            raise ShapeError(
                f"cannot {verb} tensors of {self._shape_label}s {self._shape} "
                f"and {other._shape}"
            )
        return self._wrap(op(self._array, other._array), self._shape)

    def __add__(self, other):
        return self._combine(other, np.add, "add")

    def __sub__(self, other):
        return self._combine(other, np.subtract, "subtract")

    def __mul__(self, factor: float):
        return self._wrap(float(factor) * self._array, self._shape)

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self._array, self._shape)


class DenseTensor(_Tensor):
    """Immutable dense real order-D tensor.

    ``data`` is the column-major flat sequence (first index fastest) and
    ``array`` the multi-dimensional view; both are read-only.  Construction
    validates that every entry is finite.

    Parameters
    ----------
    data : sequence of float
        Flat entries, length ``shape.nstar``, in column-major order.
    shape : Shape or sequence of int
        Dimension lengths.
    """

    __slots__ = ()

    def __init__(self, data, shape: ShapeLike):
        shape = as_shape(shape)
        self._adopt_flat(data, shape, "from_array for multi-dimensional input")

    @classmethod
    def from_array(cls, array) -> "DenseTensor":
        """Build from a multi-dimensional array, taking its shape."""
        a = np.array(array, dtype=np.float64, order="F", copy=True)
        if a.ndim == 0:
            raise ShapeError("order-0 (scalar) tensors are not supported")
        _require_finite(a)
        return cls._wrap(a, Shape(a.shape))

    @classmethod
    def zeros(cls, shape: ShapeLike) -> "DenseTensor":
        """All-zero tensor of the given shape."""
        shape = as_shape(shape)
        return cls._wrap(np.zeros(shape.dims, order="F"), shape)

    @property
    def shape(self) -> Shape:
        """Dimension lengths (read-only)."""
        return self._shape

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape})"


class SquareTensor(_Tensor):
    """Immutable order-2D tensor whose two index blocks share one Shape.

    The first D indices form the row block and the last D the column
    block.  Entries are stored column-major over the full 2D-tuple, which
    makes ``matricize`` a pure reinterpretation of the same data.

    Parameters
    ----------
    data : sequence of float
        Flat entries, length ``row_shape.nstar ** 2``, column-major.
    row_shape : Shape or sequence of int
        Dimension lengths shared by both index blocks.
    """

    __slots__ = ()
    _shape_label = "row shape"
    _index_blocks = 2

    def __init__(self, data, row_shape: ShapeLike):
        row_shape = as_shape(row_shape)
        self._adopt_flat(data, row_shape, "from_array or from_matrix for structured input")

    @classmethod
    def from_matrix(cls, matrix, row_shape: ShapeLike) -> "SquareTensor":
        """Build from an ``nstar x nstar`` matrix in the shared convention."""
        row_shape = as_shape(row_shape)
        # One column-major copy, so the tensor is a view of it.
        m = np.array(matrix, dtype=np.float64, order="F", copy=True)
        n = row_shape.nstar
        if m.shape != (n, n):
            raise ShapeError(
                f"matrix of shape {m.shape} does not match row shape {row_shape} "
                f"(expected {n} x {n})"
            )
        _require_finite(m)
        return cls._wrap(m, row_shape)

    @classmethod
    def from_array(cls, array) -> "SquareTensor":
        """Build from an order-2D array whose two index blocks agree."""
        a = np.array(array, dtype=np.float64, order="F", copy=True)
        row_shape = _square_row_shape(a.shape)
        if row_shape is None:
            raise ShapeError(f"expected two matching index blocks, got shape {a.shape}")
        _require_finite(a)
        return cls._wrap(a, row_shape)

    @classmethod
    def identity(cls, row_shape: ShapeLike) -> "SquareTensor":
        """Tensor with 1 where the two index blocks coincide, 0 elsewhere."""
        row_shape = as_shape(row_shape)
        return cls.from_matrix(np.eye(row_shape.nstar), row_shape)

    @classmethod
    def zeros(cls, row_shape: ShapeLike) -> "SquareTensor":
        """All-zero square tensor."""
        row_shape = as_shape(row_shape)
        return cls._wrap(np.zeros(row_shape.dims * 2, order="F"), row_shape)

    @property
    def row_shape(self) -> Shape:
        """Dimension lengths shared by both index blocks (read-only)."""
        return self._shape

    def __repr__(self) -> str:
        return f"SquareTensor(row_shape={self.row_shape})"


def vec(t: Union[DenseTensor, SquareTensor]) -> np.ndarray:
    """Column-major flat entries of a tensor (read-only view).

    For a shape ``(n1, .., nD)`` the entry at multi-index ``(i1, .., iD)``
    lands at flat position ``i1 + n1*i2 + n1*n2*i3 + ...`` (zero-based),
    so the first index varies fastest.  The map is a bijection; for square
    tensors it is consistent with ``matricize`` by construction.
    """
    if not isinstance(t, _Tensor):
        raise TypeError(f"expected a DenseTensor or SquareTensor, got {type(t).__name__}")
    return t.data


def _reshape_each(stack: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    # Reshape every element of a stack (leading axis) in column-major order.
    # Each element comes back laid out column-major, as a tensor stores
    # it, with the stack axis outermost: a view when the input is already
    # laid out so, at any stack size.
    last = stack.ndim - 1
    by_element = np.asfortranarray(stack.transpose(tuple(range(1, last + 1)) + (0,)))
    reshaped = by_element.reshape(dims + (len(stack),), order="F")
    return reshaped.transpose((len(dims),) + tuple(range(len(dims))))


def _row_blocks(rows: np.ndarray, shape: Shape) -> np.ndarray:
    # (G, N, nstar) stacked vec rows as (G, N, n1, .., nD) multi-index views:
    # a column-major vec read C-order is the observation with modes reversed.
    d = shape.order
    by_cell = rows.reshape(rows.shape[:2] + shape.dims[::-1])
    return np.transpose(by_cell, (0, 1) + tuple(range(d + 1, 1, -1)))


def _multi_index(k: int, shape: Shape) -> tuple[int, ...]:
    # The cell at flat vec position k.
    return tuple(int(i) for i in np.unravel_index(k, shape.dims, order="F"))


def _square_row_shape(dims: tuple[int, ...]) -> Shape | None:
    # Row shape of an order-2D shape whose two index blocks agree, else None.
    half = len(dims) // 2
    return Shape(dims[:half]) if dims and dims[:half] == dims[half:] else None


def _mode_product(rows: np.ndarray, mats, op) -> np.ndarray:
    # Apply ``op(m_k, .)`` along mode k of the (N, nstar) vec rows, for the
    # square ``mats`` in mode order: each row read C-order is the
    # observation with modes reversed, and ``op`` gets the mode-k fibres as
    # rows.  Only ``z`` holds the block, so each mode frees the one before.
    sizes = tuple(m.shape[0] for m in reversed(mats))
    z = rows.reshape(rows.shape[:1] + sizes)
    for axis, m in zip(range(len(sizes), 0, -1), mats):
        z = np.moveaxis(z, axis, -1)
        shape = z.shape
        z = z.reshape(-1, m.shape[0])
        z = np.moveaxis(op(m, z).reshape(shape), -1, axis)
    return z.reshape(rows.shape)


def _kron_stack(stacks) -> np.ndarray:
    # Kronecker products, element by element, of (B, r_k, c_k) stacks in
    # mode order, taken in reverse so that the mode-1 index varies fastest;
    # entry (i r_b + k, j c_b + l) of kron(a, b) is a[i, j] b[k, l].
    a = stacks[-1]
    for b in stacks[-2::-1]:
        rows, cols = a.shape[1] * b.shape[1], a.shape[2] * b.shape[2]
        a = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(a), rows, cols)
    return a


def _kron(mats) -> np.ndarray:
    return _kron_stack([m[None] for m in mats])[0]


def _matricize_stack(arrays: np.ndarray, row_shape: Shape) -> np.ndarray:
    # (B,) + dims * 2 square tensors -> (B, nstar, nstar) matricizations.
    n = row_shape.nstar
    return _reshape_each(arrays, (n, n))


def _unmatricize_stack(matrices: np.ndarray, row_shape: Shape) -> np.ndarray:
    # (B, nstar, nstar) matricizations -> (B,) + dims * 2 square tensors.
    return _reshape_each(matrices, row_shape.dims * 2)


def matricize(x: SquareTensor) -> np.ndarray:
    """``nstar x nstar`` matrix view of an order-2D square tensor.

    Row ``r`` and column ``c`` decode to the row-block and column-block
    multi-indices through the same column-major map ``vec`` uses, so
    ``matricize(x)[r, c] == x[decode(r) + decode(c)]``.  The returned
    array is a read-only view of the tensor's storage.
    """
    if not isinstance(x, SquareTensor):
        raise TypeError(f"expected a SquareTensor, got {type(x).__name__}")
    return _matricize_stack(x._array[None], x.row_shape)[0]


def unmatricize(matrix, row_shape: ShapeLike) -> SquareTensor:
    """Inverse of ``matricize``: rebuild the square tensor from its matrix."""
    return SquareTensor.from_matrix(matrix, row_shape)


def _transpose2d_stack(arrays: np.ndarray, d: int) -> np.ndarray:
    # Swap the two index blocks of every element of a (B,) + dims_x + dims_y
    # stack, dims_x of order d: the result is (B,) + dims_y + dims_x.
    return np.transpose(arrays, (0,) + tuple(range(d + 1, arrays.ndim)) + tuple(range(1, d + 1)))


def transpose2d(x: SquareTensor) -> SquareTensor:
    """Swap the two index blocks of an order-2D tensor.

    The matricization of the result is exactly the matrix transpose of the
    matricization of the input.
    """
    return SquareTensor._wrap(_transpose2d_stack(x._array[None], x.row_shape.order)[0], x.row_shape)


def add(x, y):
    """Entrywise sum of two conforming tensors of the same kind."""
    if type(x) is not type(y):
        raise ShapeError(
            f"cannot add {type(x).__name__} and {type(y).__name__}; "
            "operands must be the same kind of tensor"
        )
    return x + y


def scale(factor: float, x):
    """Scalar multiple of a tensor, same kind as the input."""
    return float(factor) * x


def outer(a: DenseTensor, b: DenseTensor) -> Union[SquareTensor, DenseTensor]:
    """Outer product: entry ``(i1..iD, j1..jD)`` equals ``a[i] * b[j]``.

    Returns a :class:`SquareTensor` when the factors share a shape and an
    order-2D :class:`DenseTensor` with the concatenated shape otherwise.
    """
    return _pair(np.multiply.outer(a.array, b.array), a.shape, b.shape)


def _pair(values, shape_x: Shape, shape_y: Shape) -> Union[SquareTensor, DenseTensor]:
    # Column-major entries indexed by a cell of x and a cell of y: square
    # when the shapes agree, else order-2D dense with the concatenated shape.
    if shape_x == shape_y:
        return SquareTensor._wrap(values, shape_x)
    return DenseTensor._wrap(values, Shape(shape_x.dims + shape_y.dims))


def _contract_stack(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # Element-wise contraction of x's column block against y's row block
    # over (B,) + dims * 2 stacks: each element's multi-indices are read in
    # row-major order and the shared block is summed by one matrix product.
    b, n = len(xs), math.isqrt(xs[0].size)
    return np.matmul(xs.reshape(b, n, n), ys.reshape(b, n, n)).reshape(xs.shape)


def contract_product(x: SquareTensor, y: SquareTensor) -> SquareTensor:
    """Contraction of ``x``'s column block against ``y``'s row block.

    Sums over all shared multi-indices ``j1 .. jD``; the matricization of
    the result agrees with the matrix product of the matricizations up to
    floating-point round-off.  The contraction itself runs on the
    multi-index arrays and never touches the matrix view.
    """
    if x.row_shape != y.row_shape:
        raise ShapeError(
            f"cannot contract square tensors of row shapes {x.row_shape} "
            f"and {y.row_shape}"
        )
    return SquareTensor._wrap(_contract_stack(x._array[None], y._array[None])[0], x.row_shape)


def _double_dot_stack(a: np.ndarray, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sum_{i,j} a[i] s[i, j] b[j] for every element of (B,) + dims, (B,) +
    # dims * 2 and (B,) + dims stacks, multi-indices read in row-major order.
    k, n = len(s), a[0].size
    sb = np.matmul(s.reshape(k, n, n), b.reshape(k, n, 1))
    return np.matmul(a.reshape(k, 1, n), sb)[:, 0, 0]


def double_dot_quadratic(a: DenseTensor, s: SquareTensor, b: DenseTensor) -> float:
    """Full double contraction ``sum_{i,j} a[i] * s[i, j] * b[j]``.

    Equals ``vec(a) @ matricize(s) @ vec(b)``; evaluated here by genuine
    multi-index contraction so the matrix identity stays a checkable
    property rather than a definition.
    """
    if a.shape != s.row_shape or b.shape != s.row_shape:
        raise ShapeError(
            f"operand shapes {a.shape}, {s.row_shape}, {b.shape} must agree"
        )
    return float(_double_dot_stack(a._array[None], s._array[None], b._array[None])[0])
