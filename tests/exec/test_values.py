"""Value-model unit tests."""

import numpy as np
import pytest

from repro.exec.values import (
    FArray,
    as_bool_scalar,
    as_int_scalar,
    element_width,
    serial_layers,
)
from repro.lang.errors import InterpreterError
from repro.reliability import OutOfBoundsFault


class TestFArray:
    def test_zero_initialized(self):
        arr = FArray("a", (3, 4), "integer")
        assert arr.data.sum() == 0
        assert arr.data.dtype == np.int64

    def test_real_dtype(self):
        assert FArray("a", (2,), "real").data.dtype == np.float64

    def test_logical_dtype(self):
        assert FArray("a", (2,), "logical").data.dtype == np.bool_

    def test_unknown_type_raises(self):
        with pytest.raises(InterpreterError):
            FArray("a", (2,), "complex")

    def test_negative_extent_raises(self):
        with pytest.raises(InterpreterError):
            FArray("a", (-1,))

    def test_scalar_index_is_one_based(self):
        arr = FArray("a", (3,), "integer")
        arr.data[:] = [10, 20, 30]
        assert arr.data[arr.np_index([1])] == 10
        assert arr.data[arr.np_index([3])] == 30

    def test_out_of_bounds_low(self):
        arr = FArray("a", (3,), "integer")
        with pytest.raises(InterpreterError):
            arr.np_index([0])

    def test_out_of_bounds_high(self):
        arr = FArray("a", (3,), "integer")
        with pytest.raises(InterpreterError):
            arr.np_index([4])

    def test_vector_index(self):
        arr = FArray("a", (4,), "integer")
        arr.data[:] = [1, 2, 3, 4]
        idx = arr.np_index([np.array([4, 1])])
        assert arr.data[idx].tolist() == [4, 1]

    def test_vector_index_bounds_checked(self):
        arr = FArray("a", (4,), "integer")
        with pytest.raises(InterpreterError):
            arr.np_index([np.array([1, 5])])

    def test_slice_index_passed_through(self):
        arr = FArray("a", (4,), "integer")
        assert arr.np_index([slice(0, 2)]) == (slice(0, 2),)

    def test_rank_mismatch(self):
        arr = FArray("a", (4, 4), "integer")
        with pytest.raises(InterpreterError):
            arr.np_index([1])

    def test_size(self):
        assert FArray("a", (3, 5)).size == 15


def _index_or_fault(array, subs, clamp):
    try:
        return array.np_index(subs, clamp=clamp)
    except OutOfBoundsFault as fault:
        return str(fault)


class TestNpIndexHostInts:
    """Python-int subscripts take a pure-Python check/clamp path; it
    must give the numpy path's tuples and fault texts exactly."""

    CASES = [
        # (shape, subs, clamp)
        ((3, 4), [1, 1], False),
        ((3, 4), [3, 4], False),
        ((3, 4), [0, 2], False),
        ((3, 4), [4, 2], False),
        ((3, 4), [2, 5], False),
        ((3, 4), [-1, 2], False),
        ((3, 4), [0, 2], True),
        ((3, 4), [4, 9], True),
        ((3, 4), [-7, 0], True),
        ((3, 4), [2, 3], True),
        ((3, 0), [1, 1], False),
        ((3, 0), [1, 1], True),
        ((3, 0), [0, 0], True),
        ((0,), [0], True),
        ((5,), [6], False),
    ]

    @pytest.mark.parametrize("shape, subs, clamp", CASES)
    def test_matches_the_numpy_int_path(self, shape, subs, clamp):
        array = FArray("a", shape, "integer")
        fast = _index_or_fault(array, list(subs), clamp)
        slow = _index_or_fault(array, [np.int64(s) for s in subs], clamp)
        assert fast == slow
        if isinstance(fast, tuple):
            assert all(type(i) is int for i in fast)

    def test_known_tuples_and_texts(self):
        array = FArray("a", (3, 4), "integer")
        assert array.np_index([3, 4]) == (2, 3)
        assert array.np_index([0, 9], clamp=True) == (0, 3)
        assert _index_or_fault(array, [2, 5], False) == (
            "<string>:0:0: subscript 5 out of bounds for dimension 2 of 'a' (extent 4)"
        )
        empty = FArray("e", (2, 0), "integer")
        assert _index_or_fault(empty, [1, 1], True) == (
            "<string>:0:0: subscript 1 out of bounds for dimension 2 of 'e' (extent 0)"
        )

    def test_bool_and_numpy_ints_keep_the_numpy_path(self, monkeypatch):
        """Only exact ``int`` takes the fast path: a ``bool`` (an int
        subclass) or an ``np.int64`` still goes through
        ``check_subscript``."""
        array = FArray("a", (3,), "integer")
        seen = []
        real = FArray.check_subscript

        def spy(self, dim, index):
            seen.append(type(index))
            return real(self, dim, index)

        monkeypatch.setattr(FArray, "check_subscript", spy)
        assert array.np_index([2]) == (1,)
        assert seen == []
        assert array.np_index([True]) == (0,)
        assert array.np_index([np.int64(3)]) == (2,)
        assert seen == [bool, np.int64]


class TestCoercions:
    def test_bool_from_python(self):
        assert as_bool_scalar(True) is True
        assert as_bool_scalar(0) is False

    def test_bool_from_uniform_vector(self):
        assert as_bool_scalar(np.array([True, True])) is True

    def test_bool_from_divergent_vector_raises(self):
        with pytest.raises(InterpreterError):
            as_bool_scalar(np.array([True, False]))

    def test_int_from_float_integral(self):
        assert as_int_scalar(3.0) == 3

    def test_int_from_float_fractional_raises(self):
        with pytest.raises(InterpreterError):
            as_int_scalar(3.5)

    def test_int_from_uniform_vector(self):
        assert as_int_scalar(np.array([4, 4, 4])) == 4

    def test_int_from_divergent_vector_raises(self):
        with pytest.raises(InterpreterError):
            as_int_scalar(np.array([1, 2]))

    def test_element_width(self):
        assert element_width(5) == 1
        assert element_width(np.zeros(8)) == 8
        assert element_width(np.zeros((4, 2))) == 8

    def test_serial_layers(self):
        assert serial_layers(5) == 1
        assert serial_layers(np.zeros(8)) == 1
        assert serial_layers(np.zeros((4, 3))) == 3
        assert serial_layers(np.zeros((4, 3, 2))) == 6
