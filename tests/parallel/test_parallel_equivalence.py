"""Observability state recorded on worker threads equals the serial run's.

The layer-wise contract (``tests/test_layerwise_contract.py``) states
that ``embed_all`` over a store gives the same bytes at any worker
count.  This module extends that to the metrics the tasks record: the
counter and histogram state a threaded run leaves in the caller's
registry equals the state of the inline run.
"""

import tempfile
from pathlib import Path

import pytest

from repro import obs
from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.nn.tensor import is_grad_enabled
from repro.parallel import shutdown_pools
from repro.utils.config import SageConfig

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module", autouse=True)
def _shutdown_cached_pools():
    yield
    shutdown_pools()  # don't leave warm worker pools behind the module


def _observed_embeds(batch_size: int) -> dict[int, dict]:
    """Registry snapshot of a store ``embed_all`` at workers 1 and 2."""
    graph = random_bipartite(300, 200, 2400, feature_dim=6, rng=1)
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
    snaps = {}
    with tempfile.TemporaryDirectory() as tmp:
        with graph.to_sharded(Path(tmp) / "s") as store:
            for workers in (1, 2):
                model = BipartiteGraphSAGE(6, 6, cfg, rng=0)
                with obs.observe() as session:
                    model.embed_all(store, batch_size=batch_size, workers=workers)
                snaps[workers] = session.registry.snapshot()
    return snaps


class TestObsStateEquivalence:
    def test_histogram_state_identical_across_worker_counts(self):
        """Histogram state (counts, sums, buckets and the derived
        percentiles) is identical at workers=1 and workers=2."""
        graph = random_bipartite(40, 30, 160, feature_dim=6, rng=0)
        cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
        snaps = {}
        with tempfile.TemporaryDirectory() as tmp:
            with graph.to_sharded(Path(tmp) / "s") as store:
                for workers in (1, 2):
                    model = BipartiteGraphSAGE(6, 6, cfg, rng=0)
                    with obs.observe() as session:
                        model.embed_all(store, batch_size=7, workers=workers)
                    snaps[workers] = session.registry.snapshot()
        h1 = snaps[1]["histograms"]
        h2 = snaps[2]["histograms"]
        assert "sage.frontier_size" in h1
        assert h1 == h2
        assert snaps[1]["counters"] == snaps[2]["counters"]

    def test_task_counters_equal_across_worker_counts(self):
        """The samplers count inside the tasks, on the worker threads;
        the threaded run's counters and histograms equal the inline
        run's, and grad mode is back on afterwards."""
        assert is_grad_enabled()
        snaps = _observed_embeds(batch_size=5)  # ~100 tasks per pass
        assert is_grad_enabled()
        one, two = snaps[1]["counters"], snaps[2]["counters"]
        for name in ("sampler.samples_drawn", "sampler.batches", "sage.vertices_embedded"):
            assert one[name] > 0
            assert one[name] == two[name], name
        assert one["sage.vertices_embedded"] == 2 * (300 + 200)  # two steps
        assert snaps[1]["histograms"] == snaps[2]["histograms"]
