"""Worker-merged observability state equals the serial run's.

The layer-wise contract (``tests/test_layerwise_contract.py``) states
that ``embed_all`` over a store gives the same bytes at any worker
count.  This module extends that to the metrics the workers send back:
histogram and counter state merged from the workers equals the state of
the in-process run.
"""

import tempfile
from pathlib import Path

import pytest

from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.parallel import shutdown_pools
from repro.utils.config import SageConfig

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module", autouse=True)
def _shutdown_cached_pools():
    yield
    shutdown_pools()  # don't leave warm worker pools behind the module


class TestObsStateEquivalence:
    def test_histogram_state_identical_across_worker_counts(self):
        """Worker-merged histogram state (counts, sums, buckets and the
        derived percentiles) is identical at workers=1 and workers=2."""
        from repro import obs

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
