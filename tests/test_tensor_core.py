"""Tests for shapes, dense/square tensors and the core operations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorstat.errors import ShapeError
from tensorstat.stats import SampleSet
from tensorstat.tensor_core import (
    DenseTensor,
    Shape,
    SquareTensor,
    _pair,
    add,
    contract_product,
    double_dot_quadratic,
    matricize,
    outer,
    scale,
    transpose2d,
    unmatricize,
    vec,
)

SHAPES = [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]


def random_dense(rng, dims):
    return DenseTensor.from_array(rng.standard_normal(dims))


def random_square(rng, dims):
    n = int(np.prod(dims))
    return unmatricize(rng.standard_normal((n, n)), Shape(dims))


shape_strategy = st.sampled_from(SHAPES)


@st.composite
def square_tensors(draw):
    dims = draw(shape_strategy)
    n = int(np.prod(dims))
    m = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        )
    )
    return SquareTensor(m, Shape(dims))


class TestShape:
    def test_basic(self):
        s = Shape((2, 3, 4))
        assert s.order == 3
        assert s.nstar == 24
        assert list(s) == [2, 3, 4]
        assert str(s) == "2x3x4"

    def test_equality_is_exact(self):
        assert Shape((2, 3)) == Shape([2, 3])
        assert Shape((2, 3)) != Shape((3, 2))

    def test_rejects_order_zero(self):
        with pytest.raises(ShapeError):
            Shape(())

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ShapeError):
            Shape((2, 0))
        with pytest.raises(ShapeError):
            Shape((-1,))

    @pytest.mark.parametrize("dims", [(2.9, 2), (2.0,), ("3",), (True, 2), (np.float64(2),)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(ShapeError):
            Shape(dims)
        with pytest.raises(ShapeError):
            DenseTensor([1.0, 2.0, 3.0, 4.0], dims)

    def test_accepts_numpy_integer_dims(self):
        assert Shape((np.int64(2), np.int32(3))).dims == (2, 3)


class TestDenseTensor:
    def test_data_length_must_match(self):
        with pytest.raises(ShapeError):
            DenseTensor([1.0, 2.0, 3.0], (2, 2))

    def test_rejects_nested_data(self):
        with pytest.raises(ShapeError):
            DenseTensor([[1.0, 2.0], [3.0, 4.0]], (2, 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DenseTensor([1.0, float("nan")], (2,))
        with pytest.raises(ValueError):
            DenseTensor([1.0, float("inf")], (2,))

    def test_unchecked_skips_finiteness(self):
        t = DenseTensor._wrap(np.array([1.0, float("nan")]), Shape((2,)))
        assert np.isnan(t.data[1])

    def test_immutable(self):
        t = DenseTensor([1.0, 2.0], (2,))
        with pytest.raises(ValueError):
            t.array[0] = 5.0
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_from_array_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 2))
        t = DenseTensor.from_array(a)
        assert t.shape == Shape((2, 3, 2))
        np.testing.assert_array_equal(t.array, a)

    def test_shapes_are_read_only(self):
        # A writable shape could disagree with the entries it describes.
        t = DenseTensor.zeros((2, 2))
        with pytest.raises(AttributeError):
            t.shape = Shape((4,))
        x = SquareTensor.zeros((2,))
        with pytest.raises(AttributeError):
            x.row_shape = Shape((4,))
        s = SampleSet(Shape((2,)), [DenseTensor.zeros((2,))] * 2)
        with pytest.raises(AttributeError):
            s.shape = Shape((1,))
        assert (t.shape, x.row_shape, s.shape) == (Shape((2, 2)), Shape((2,)), Shape((2,)))

    def test_from_array_copies_a_c_order_array_once(self):
        a = np.random.default_rng(18).standard_normal((512, 512))
        tracemalloc.start()
        try:
            t = DenseTensor.from_array(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.nbytes
        assert not np.shares_memory(t.array, a)
        np.testing.assert_array_equal(t.array, a)

    def test_from_array_errors_keep_their_order(self):
        with pytest.raises(ShapeError, match="order-0"):
            DenseTensor.from_array(np.float64(np.nan))
        with pytest.raises(ShapeError, match=">= 1"):
            DenseTensor.from_array(np.full((2, 0), np.nan))
        with pytest.raises(ValueError, match="finite"):
            DenseTensor.from_array([[1.0, np.inf]])

    def test_arithmetic_dunder(self):
        x = DenseTensor([1.0, 2.0], (2,))
        y = DenseTensor([10.0, 20.0], (2,))
        np.testing.assert_array_equal((x + y).data, [11.0, 22.0])
        np.testing.assert_array_equal((y - x).data, [9.0, 18.0])
        np.testing.assert_array_equal((2.0 * x).data, [2.0, 4.0])
        np.testing.assert_array_equal((-x).data, [-1.0, -2.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            DenseTensor([1.0, 2.0], (2,)) + DenseTensor([1.0, 2.0, 3.0], (3,))

    def test_mixed_kind_add_raises(self):
        with pytest.raises(ShapeError):
            add(DenseTensor.zeros((2, 2)), SquareTensor.zeros((2,)))

    def test_mixed_kind_operators(self):
        d = DenseTensor.zeros((2, 2))
        s = SquareTensor.zeros((2,))
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError):
                op(d, s)
            with pytest.raises(TypeError):
                op(s, d)
        assert not d == s
        assert not s == d
        assert d != s


class TestVec:
    def test_column_major_order_2x2(self):
        # X11=a X21=b X12=c X22=d laid out with the first index fastest
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        t = DenseTensor.from_array(np.array([[a, c], [b, d]]))
        np.testing.assert_array_equal(vec(t), [a, b, c, d])
        assert (t[0, 0], t[1, 0], t[0, 1], t[1, 1]) == (a, b, c, d)

    def test_zeros(self):
        np.testing.assert_array_equal(vec(DenseTensor.zeros((2, 3))), np.zeros(6))

    def test_d1_identity_of_layout(self):
        np.testing.assert_array_equal(vec(DenseTensor([5.0, 7.0], (2,))), [5.0, 7.0])

    def test_bijective(self):
        rng = np.random.default_rng(1)
        t = random_dense(rng, (2, 3, 2))
        back = DenseTensor(vec(t), t.shape)
        assert back == t


class TestMatricize:
    def test_identity_tensor(self):
        np.testing.assert_array_equal(
            matricize(SquareTensor.identity((2, 2))), np.eye(4)
        )

    def test_zero_tensor(self):
        np.testing.assert_array_equal(
            matricize(SquareTensor.zeros((2, 3))), np.zeros((6, 6))
        )

    def test_d1_is_entrywise_unchanged(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = unmatricize(m, Shape((2,)))
        np.testing.assert_array_equal(x.array, m)
        np.testing.assert_array_equal(matricize(x), m)

    def test_entry_correspondence(self):
        # matricize[r, c] == x[decode(r) + decode(c)] under the column-major map
        rng = np.random.default_rng(2)
        dims = (2, 3)
        x = random_square(rng, dims)
        m = matricize(x)
        for r in range(6):
            for c in range(6):
                ri = np.unravel_index(r, dims, order="F")
                ci = np.unravel_index(c, dims, order="F")
                assert m[r, c] == x.array[ri + ci] == x[ri + ci]


class TestUnmatricize:
    def test_identity_matrix(self):
        assert unmatricize(np.eye(4), Shape((2, 2))) == SquareTensor.identity((2, 2))

    def test_diag_matrix_oracle(self):
        # oracle: build the tensor, matricize it back, compare to the input
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        x = unmatricize(m, Shape((2, 2)))
        np.testing.assert_array_equal(matricize(x), m)
        # diagonal entries land where both index blocks coincide
        for k in range(4):
            idx = np.unravel_index(k, (2, 2), order="F")
            assert x.array[idx + idx] == float(k + 1)

    def test_one_by_one(self):
        x = unmatricize(np.array([[7.5]]), Shape((1,)))
        assert x.array[0, 0] == 7.5

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            unmatricize(np.eye(3), Shape((2, 2)))
        with pytest.raises(ShapeError):
            unmatricize(np.zeros((4, 3)), Shape((2, 2)))

    @settings(max_examples=50)
    @given(square_tensors())
    def test_round_trip_exact(self, x):
        back = unmatricize(matricize(x), x.row_shape)
        assert back == x


class TestTranspose2d:
    def test_symmetric_fixed_point(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        x = unmatricize(m + m.T, Shape((2, 2)))
        assert transpose2d(x) == x

    def test_d1_matrix_transpose(self):
        x = unmatricize(np.array([[1.0, 2.0], [3.0, 4.0]]), Shape((2,)))
        np.testing.assert_array_equal(
            matricize(transpose2d(x)), [[1.0, 3.0], [2.0, 4.0]]
        )

    @settings(max_examples=50)
    @given(square_tensors())
    def test_matches_matrix_transpose_exactly(self, x):
        np.testing.assert_array_equal(matricize(transpose2d(x)), matricize(x).T)

    def test_involution(self):
        rng = np.random.default_rng(4)
        x = random_square(rng, (2, 3))
        assert transpose2d(transpose2d(x)) == x


class TestAddScale:
    def test_additive_identity(self):
        rng = np.random.default_rng(5)
        x = random_square(rng, (2, 2))
        assert add(x, SquareTensor.zeros((2, 2))) == x

    def test_scale_zero_annihilates(self):
        rng = np.random.default_rng(6)
        x = random_square(rng, (2, 2))
        assert scale(0.0, x) == SquareTensor.zeros((2, 2))

    def test_linearity_of_matricization(self):
        rng = np.random.default_rng(7)
        for dims in SHAPES:
            x = random_square(rng, dims)
            y = random_square(rng, dims)
            lhs = matricize(add(scale(3.0, x), y))
            rhs = 3.0 * matricize(x) + matricize(y)
            np.testing.assert_array_equal(lhs, rhs)


class TestOuter:
    def test_rank_one_by_hand(self):
        a = DenseTensor([1.0, 2.0], (2,))
        b = DenseTensor([3.0, 4.0], (2,))
        res = outer(a, b)
        assert isinstance(res, SquareTensor)
        np.testing.assert_array_equal(matricize(res), [[3.0, 4.0], [6.0, 8.0]])

    def test_with_zeros(self):
        a = DenseTensor([1.0, 2.0], (2,))
        assert outer(a, DenseTensor.zeros((2,))) == SquareTensor.zeros((2,))

    def test_matricize_equals_vec_outer(self):
        rng = np.random.default_rng(8)
        for dims in SHAPES:
            a = random_dense(rng, dims)
            np.testing.assert_allclose(
                matricize(outer(a, a)), np.outer(vec(a), vec(a)), rtol=0, atol=0
            )

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(9)
        a = random_dense(rng, (2,))
        b = random_dense(rng, (3,))
        res = outer(a, b)
        assert isinstance(res, DenseTensor)
        assert res.shape == Shape((2, 3))
        # flat column-major data reshapes to vec(a) vec(b)^T
        np.testing.assert_array_equal(
            res.data.reshape((2, 3), order="F"), np.outer(vec(a), vec(b))
        )


def same_tensor_bits(got, ref):
    # Kind, shape, layout, read-only flag and every bit of every entry.
    return (
        type(got) is type(ref)
        and got._shape == ref._shape
        and got.array.shape == ref.array.shape
        and got.array.flags.f_contiguous
        and not got.array.flags.writeable
        and got.array.tobytes(order="F") == ref.array.tobytes(order="F")
    )


WRAP_SHAPES = [(3,), (2, 3), (3, 1, 2)]


class TestWrap:
    # _wrap takes column-major entries in any shape that holds them.

    @pytest.mark.parametrize("dims", WRAP_SHAPES)
    def test_dense_from_vec_or_multi_index_array(self, dims):
        rng = np.random.default_rng(len(dims))
        ref = DenseTensor(rng.standard_normal(int(np.prod(dims))), dims)
        for values in (vec(ref), ref.array, np.ascontiguousarray(ref.array)):
            assert same_tensor_bits(DenseTensor._wrap(values, ref.shape), ref)

    @pytest.mark.parametrize("dims", WRAP_SHAPES)
    def test_square_from_vec_matricization_or_multi_index_array(self, dims):
        rng = np.random.default_rng(10 + len(dims))
        n = int(np.prod(dims))
        ref = SquareTensor(rng.standard_normal(n * n), dims)
        layouts = (vec(ref), matricize(ref), np.ascontiguousarray(matricize(ref)),
                   ref.array, np.ascontiguousarray(ref.array))
        for values in layouts:
            assert same_tensor_bits(SquareTensor._wrap(values, ref.row_shape), ref)
        assert same_tensor_bits(SquareTensor.from_matrix(matricize(ref), dims), ref)

    @pytest.mark.parametrize("dims_x, dims_y", [
        ((2,), (2,)), ((2, 3), (2, 3)), ((2,), (3,)), ((2, 3), (3,)), ((3,), (3, 1, 2)),
    ])
    def test_pair_gives_outers_kind_and_shape(self, dims_x, dims_y):
        rng = np.random.default_rng(len(dims_x) + 3 * len(dims_y))
        a, b = random_dense(rng, dims_x), random_dense(rng, dims_y)
        ref = outer(a, b)
        assert same_tensor_bits(_pair(np.outer(vec(a), vec(b)), a.shape, b.shape), ref)
        assert same_tensor_bits(_pair(ref.array, a.shape, b.shape), ref)


class TestContractProduct:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(10)
        y = random_square(rng, (2, 2))
        assert contract_product(SquareTensor.identity((2, 2)), y) == y

    def test_d1_matrix_product(self):
        x = unmatricize(np.array([[1.0, 2.0], [3.0, 4.0]]), Shape((2,)))
        y = unmatricize(np.array([[5.0, 6.0], [7.0, 8.0]]), Shape((2,)))
        np.testing.assert_array_equal(
            matricize(contract_product(x, y)), [[19.0, 22.0], [43.0, 50.0]]
        )

    def test_matches_matricized_product(self):
        rng = np.random.default_rng(11)
        for dims in SHAPES:
            x = random_square(rng, dims)
            y = random_square(rng, dims)
            got = matricize(contract_product(x, y))
            ref = matricize(x) @ matricize(y)
            denom = max(np.linalg.norm(ref), 1e-30)
            assert np.linalg.norm(got - ref) / denom <= 1e-12

    def test_literal_contraction_oracle(self):
        # brute-force sum over the shared index block
        rng = np.random.default_rng(12)
        dims = (2, 2)
        x = random_square(rng, dims)
        y = random_square(rng, dims)
        res = contract_product(x, y)
        for i in np.ndindex(dims):
            for k in np.ndindex(dims):
                expected = sum(
                    x.array[i + j] * y.array[j + k] for j in np.ndindex(dims)
                )
                assert res.array[i + k] == pytest.approx(expected, rel=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            contract_product(SquareTensor.identity((2,)), SquareTensor.identity((3,)))


class TestDoubleDotQuadratic:
    def test_identity_gives_squared_norm(self):
        a = DenseTensor([1.0, 2.0, 2.0], (3,))
        assert double_dot_quadratic(a, SquareTensor.identity((3,)), a) == 9.0

    def test_zero_operand(self):
        rng = np.random.default_rng(13)
        s = random_square(rng, (2, 2))
        z = DenseTensor.zeros((2, 2))
        assert double_dot_quadratic(z, s, z) == 0.0

    def test_vec_mat_oracle(self):
        rng = np.random.default_rng(14)
        for dims in SHAPES:
            a = random_dense(rng, dims)
            b = random_dense(rng, dims)
            s = random_square(rng, dims)
            got = double_dot_quadratic(a, s, b)
            ref = float(vec(a) @ matricize(s) @ vec(b))
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_literal_triple_sum_oracle(self):
        rng = np.random.default_rng(15)
        dims = (2, 2)
        a = random_dense(rng, dims)
        b = random_dense(rng, dims)
        s = random_square(rng, dims)
        expected = sum(
            a.array[i] * s.array[i + j] * b.array[j]
            for i in np.ndindex(dims)
            for j in np.ndindex(dims)
        )
        assert double_dot_quadratic(a, s, b) == pytest.approx(expected, rel=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            double_dot_quadratic(
                DenseTensor.zeros((2,)),
                SquareTensor.identity((3,)),
                DenseTensor.zeros((3,)),
            )


class TestSquareTensorConstruction:
    def test_from_array_requires_matching_blocks(self):
        with pytest.raises(ShapeError):
            SquareTensor.from_array(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            SquareTensor.from_array(np.zeros((2, 2, 2)))

    def test_from_array_copies_its_input(self):
        a = np.asfortranarray(np.eye(4).reshape(2, 2, 2, 2, order="F"))
        x = SquareTensor.from_array(a)
        a[0, 0, 0, 0] = 5.0
        assert not np.shares_memory(x.array, a)
        assert x == SquareTensor.identity((2, 2))

    def test_from_matrix_copies_a_c_order_matrix_once(self):
        m = np.random.default_rng(17).standard_normal((512, 512))
        tracemalloc.start()
        try:
            x = SquareTensor.from_matrix(m, Shape((16, 32)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m.nbytes
        assert not np.shares_memory(x.array, m)
        np.testing.assert_array_equal(matricize(x), m)

    def test_from_array_matches_from_matrix(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((6, 6))
        x = unmatricize(m, Shape((2, 3)))
        y = SquareTensor.from_array(x.array)
        assert x == y

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SquareTensor.from_matrix(np.array([[np.nan]]), Shape((1,)))
