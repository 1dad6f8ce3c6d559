"""ShardedCSR storage: round-trips, validation at open, lifecycle."""

import json

import numpy as np
import pytest

from repro.data import StreamedWorldConfig, stream_world_to_shards
from repro.graph import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.shard import ShardedCSR, active_shard_dirs


def _world(seed=0, users=80, items=60, edges=400):
    return random_bipartite(users, items, edges, feature_dim=5, rng=seed)


def _files(path):
    """Every file of a store directory, by name."""
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def _assert_builder_writes_graph_bytes(tmp_path, cfg, num_shards):
    """A store streamed with ``num_shards`` item ranges holds the bytes
    ``to_sharded`` writes for its own graph."""
    with stream_world_to_shards(tmp_path / "w", cfg, num_shards=num_shards, seed=1) as store:
        graph = store.to_graph()
        with graph.to_sharded(tmp_path / "g") as again:
            assert _files(store.path) == _files(again.path)
        _assert_same_graph(graph, BipartiteGraph.from_sharded(store.path))


def _edge_table(graph):
    order = np.lexsort((graph.edges[:, 1], graph.edges[:, 0]))
    return graph.edges[order], graph.edge_weights[order]


def _assert_same_graph(a, b):
    assert (a.num_users, a.num_items, a.num_edges) == (
        b.num_users,
        b.num_items,
        b.num_edges,
    )
    ea, wa = _edge_table(a)
    eb, wb = _edge_table(b)
    assert np.array_equal(ea, eb)
    assert np.array_equal(wa, wb)


class TestRoundTrip:
    @pytest.mark.parametrize("num_shards", [1, 4, 17])
    def test_to_sharded_from_sharded(self, tmp_path, num_shards):
        # num_shards is the stream builder's item-range count here.
        cfg = StreamedWorldConfig(
            num_users=90, num_items=70, num_clusters=3, feature_dim=2, chunk_users=25
        )
        _assert_builder_writes_graph_bytes(tmp_path, cfg, num_shards)
        graph = _world()
        store = graph.to_sharded(tmp_path / "s")
        try:
            assert store.num_edges == graph.num_edges
            back = BipartiteGraph.from_sharded(tmp_path / "s")
            _assert_same_graph(graph, back)
            assert np.array_equal(graph.user_features, back.user_features)
            assert np.array_equal(graph.item_features, back.item_features)
        finally:
            store.destroy()
        assert not (tmp_path / "s").exists()

    def test_empty_shards_roundtrip(self, tmp_path):
        # 17 item ranges over 8 items: most ranges spill nothing.
        cfg = StreamedWorldConfig(
            num_users=10, num_items=8, num_clusters=2, feature_dim=2, chunk_users=3
        )
        _assert_builder_writes_graph_bytes(tmp_path, cfg, 17)

    def test_isolated_vertices_roundtrip(self, tmp_path):
        # Vertices with degree 0 must survive the trip with their ids.
        graph = BipartiteGraph(6, 5, np.array([[0, 0], [0, 2], [5, 4]]))
        with graph.to_sharded(tmp_path / "s") as store:
            back = store.to_graph()
            _assert_same_graph(graph, back)
            assert np.array_equal(store.degrees("user"), graph.user_degrees())
            assert np.array_equal(store.degrees("item"), graph.item_degrees())

    def test_per_row_neighbor_order_preserved(self, tmp_path):
        graph = _world(seed=3)
        with graph.to_sharded(tmp_path / "s") as store:
            for user in range(graph.num_users):
                ids, weights = store.neighbors("user", user)
                assert np.array_equal(ids, graph.item_neighbors(user))
                assert np.array_equal(weights, graph.item_neighbor_weights(user))
            for item in range(graph.num_items):
                ids, weights = store.neighbors("item", item)
                assert np.array_equal(ids, graph.user_neighbors(item))
                assert np.array_equal(weights, graph.user_neighbor_weights(item))


class TestLifecycle:
    def test_existing_store_refused(self, tmp_path):
        graph = _world(users=10, items=8, edges=20)
        with graph.to_sharded(tmp_path / "s"):
            with pytest.raises(FileExistsError):
                graph.to_sharded(tmp_path / "s")

    def test_open_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedCSR.open(tmp_path / "nope")

    def test_owner_registered_until_destroy(self, tmp_path):
        graph = _world(users=10, items=8, edges=20)
        store = graph.to_sharded(tmp_path / "s")
        assert str(tmp_path / "s") in active_shard_dirs()
        store.destroy()
        assert str(tmp_path / "s") not in active_shard_dirs()
        store.destroy()  # idempotent

    def test_close_keeps_files_and_blocks_access(self, tmp_path):
        graph = _world(users=10, items=8, edges=20)
        store = graph.to_sharded(tmp_path / "s")
        try:
            attached = ShardedCSR.open(tmp_path / "s")
            attached.close()
            assert (tmp_path / "s").exists()  # non-owner close never deletes
            with pytest.raises(ValueError):
                attached.neighbors("user", 0)  # reads refuse once closed
            attached.close()  # idempotent
        finally:
            store.destroy()

    def test_attached_handle_sees_same_data(self, tmp_path):
        graph = _world(seed=5, users=20, items=15, edges=90)
        with graph.to_sharded(tmp_path / "s") as store:
            attached = ShardedCSR.open(tmp_path / "s")
            try:
                assert attached.num_edges == store.num_edges
                _assert_same_graph(store.to_graph(), attached.to_graph())
            finally:
                attached.close()

    def test_side_validation(self, tmp_path):
        graph = _world(users=10, items=8, edges=20)
        with graph.to_sharded(tmp_path / "s") as store:
            with pytest.raises(ValueError):
                store.degrees("query")
            with pytest.raises(ValueError):
                store.neighbors("both", 0)


class TestValidatedAtOpen:
    """A store that disagrees with its manifest fails at ``open``, naming
    the file, not at the first draw inside a worker."""

    @pytest.fixture
    def store_dir(self, tmp_path):
        with _world(users=10, items=8, edges=20).to_sharded(tmp_path / "s") as store:
            yield store.path

    def test_truncated_indices_rejected(self, store_dir):
        file = store_dir / "user.indices.bin"
        file.write_bytes(file.read_bytes()[:-16])
        with pytest.raises(ValueError, match="user.indices.bin"):
            ShardedCSR.open(store_dir)

    def test_decreasing_indptr_rejected(self, store_dir):
        file = store_dir / "item.indptr.bin"
        indptr = np.fromfile(file, dtype="<i8")
        indptr[1], indptr[2] = indptr[2] + 1, indptr[1]
        indptr.tofile(file)
        with pytest.raises(ValueError, match="item.indptr.bin"):
            ShardedCSR.open(store_dir)

    def test_v1_manifest_rejected(self, store_dir):
        file = store_dir / "manifest.json"
        manifest = json.loads(file.read_text())
        manifest["schema"] = "repro/sharded-csr/v1"
        file.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="v1"):
            ShardedCSR.open(store_dir)
