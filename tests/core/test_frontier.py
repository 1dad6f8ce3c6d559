"""The block step's frontier: a boolean mask of the side, not a sort.

``_frontier`` and ``_rows`` must give exactly the ids and rows of the
``np.unique`` / ``searchsorted`` pair they replace (``tests/oracles.py``).
"""

import numpy as np
import pytest

from repro.core.sage import _frontier, _rows
from repro.nn.tensor import Tensor
from tests.oracles import frontier_rows_searchsorted, frontier_unique

N = 9

CASES = {
    "padding": [np.array([-1, 3, -1]), np.array([[2, -1], [-1, -1]])],
    "empty_requests": [np.array([], dtype=np.int64), np.empty((0, 4), dtype=np.int64)],
    "no_requests": [],
    "duplicates": [np.array([4, 4, 1, 4]), np.array([[1, 1], [4, 0]])],
    "last_id": [np.array([N - 1, 0]), np.array([[N - 1, N - 1]])],
    "all_padding": [np.array([-1, -1])],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_frontier_ids_equal_unique(case):
    ids, _ = _frontier(N, CASES[case])
    want = frontier_unique(CASES[case])
    assert (ids.dtype, ids.tobytes()) == (want.dtype, want.tobytes())


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_equal_searchsorted(case):
    arrays = CASES[case]
    ids, rank = _frontier(N, arrays)
    h = np.random.default_rng(0).normal(size=(len(ids), 3))
    for request in arrays:
        got = _rows(Tensor(h), rank, request).data
        want = h[frontier_rows_searchsorted(frontier_unique(arrays), request)]
        assert got.tobytes() == want.tobytes()


def test_random_requests_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        arrays = [rng.integers(-1, n, size=rng.integers(0, 30)) for _ in range(3)]
        ids, rank = _frontier(n, arrays)
        want = frontier_unique(arrays)
        assert ids.tobytes() == want.tobytes()
        for request in arrays:
            flat = np.where(request >= 0, request, 0)
            assert np.array_equal(rank[flat], frontier_rows_searchsorted(want, request))
