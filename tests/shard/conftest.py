"""Store-directory leak guard for every test in this package."""

import pytest

from repro.shard import active_shard_dirs


@pytest.fixture(autouse=True)
def _no_leaked_stores():
    """Fail any test that exits with an owner store still registered.

    An owner that is never destroyed leaves its directory on disk, so
    a leak here is files no later test cleans up.
    """
    before = active_shard_dirs()
    yield
    leaked = active_shard_dirs() - before
    assert not leaked, f"test leaked shard store directories: {sorted(leaked)}"
