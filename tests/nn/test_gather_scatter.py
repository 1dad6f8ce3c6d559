"""``Tensor.gather_rows`` backward: one sparse-product scatter.

The backward pass must be bitwise equal to the ``np.add.at`` reference
it replaced — same sequential additions into each row, in index order,
in the gradient's own dtype — for float64 and float32, any table rank,
duplicated indices, negative (wrapped) indices and empty index arrays.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn.tensor import Tensor, _scatter_rows

DTYPES = [np.float64, np.float32]


def _reference(shape, idx, grad):
    full = np.zeros(shape, dtype=grad.dtype)
    np.add.at(full, idx, grad)
    return full


def _backward(table, idx, grad):
    t = Tensor(table, requires_grad=True)
    t.gather_rows(idx).backward(grad)
    return t.grad


def _assert_same(got, want):
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@st.composite
def _cases(draw):
    rows = draw(st.integers(1, 12))
    tail = draw(st.lists(st.integers(0, 4), min_size=0, max_size=2))
    shape = (rows, *tail)
    n = draw(st.integers(0, 40))
    # Few distinct rows and many draws force heavy duplication.
    idx = np.array(
        draw(st.lists(st.integers(-rows, rows - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # Mixed magnitudes make the result sensitive to summation order.
    scale = 10.0 ** rng.integers(-8, 9, size=(n, *tail))
    grad = rng.normal(size=(n, *tail)) * scale
    return shape, idx, grad


class TestScatterMatchesAddAt:
    @settings(max_examples=200, deadline=None)
    @given(_cases())
    def test_bitwise_equal_to_add_at(self, case):
        shape, idx, grad = case
        _assert_same(_backward(np.zeros(shape), idx, grad), _reference(shape, idx, grad))

    @settings(max_examples=200, deadline=None)
    @given(_cases())
    def test_float32_bitwise_equal_to_add_at(self, case):
        shape, idx, grad = case
        grad = grad.astype(np.float32)
        _assert_same(_scatter_rows(idx, grad, shape), _reference(shape, idx, grad))

    def test_empty_index(self):
        for dtype in DTYPES:
            got = _scatter_rows(np.array([], dtype=np.int64), np.zeros((0, 3), dtype), (4, 3))
            assert (got.shape, got.dtype) == ((4, 3), dtype) and not got.any()
        got = _backward(np.ones((4, 3)), np.array([], dtype=np.int64), np.zeros((0, 3)))
        assert got.shape == (4, 3) and not got.any()

    def test_one_dimensional_table(self):
        idx = np.array([2, 0, 2, 2, -1])
        for dtype, big in zip(DTYPES, (1e16, 1e8)):
            grad = np.array([big, 3.0, 1.0, -big, 0.5], dtype=dtype)
            _assert_same(_scatter_rows(idx, grad, (4,)), _reference((4,), idx, grad))

    def test_three_dimensional_table(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(-3, 3, size=50)
        grad = rng.normal(size=(50, 2, 5)) * 10.0 ** rng.integers(-6, 7, size=(50, 2, 5))
        for dtype in DTYPES:
            got = _scatter_rows(idx, grad.astype(dtype), (3, 2, 5))
            _assert_same(got, _reference((3, 2, 5), idx, grad.astype(dtype)))

    def test_accumulates_into_existing_grad(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        (t.gather_rows(np.array([1, 1])).sum() + t.gather_rows(np.array([1])).sum()).backward()
        np.testing.assert_array_equal(t.grad, [[0, 0], [3, 3], [0, 0]])
