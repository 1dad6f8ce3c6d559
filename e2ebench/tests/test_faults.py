"""Fault injection: each correctness check fires on a broken output, and
the open loop charges stalls and raised requests where they belong."""

import time

import numpy as np
import pytest

import checks
import workloads
from harness import PeakMemory, run_open_loop


@pytest.fixture(scope="module")
def hierarchy():
    from repro import load_dataset

    spec = workloads.SIZES["tiny"]["pipeline"]
    hcfg, cvr = workloads._pipeline_configs(spec)
    dataset = load_dataset("mini-taobao1", spec["dataset"], seed=0)
    hier, auc = workloads._one_pipeline(dataset, hcfg, cvr, seed=0)
    assert checks.check_hierarchy(hier) == [] and checks.check_auc(auc, spec["auc_floor"]) == []
    return hier


def test_non_conserving_coarsen_fires(hierarchy):
    from repro import BipartiteGraph

    rec = hierarchy.levels[0]
    good = rec.coarse_graph
    weights = good.edge_weights.copy()
    weights[0] += 1.0
    rec.coarse_graph = BipartiteGraph(
        good.num_users, good.num_items, good.edges, weights,
        good.user_features, good.item_features,
    )
    try:
        failures = checks.check_hierarchy(hierarchy)
    finally:
        rec.coarse_graph = good
    assert len(failures) == 1 and "total weight" in failures[0]


def test_non_finite_embeddings_fire(hierarchy):
    rec = hierarchy.levels[-1]
    saved = rec.item_embeddings[0, 0]
    rec.item_embeddings[0, 0] = np.nan
    try:
        failures = checks.check_hierarchy(hierarchy)
    finally:
        rec.item_embeddings[0, 0] = saved
    assert any("non-finite item" in f for f in failures)


def test_auc_floor_fires():
    assert checks.check_auc(0.5)
    assert checks.check_auc(float("nan"))
    assert not checks.check_auc(0.7)


@pytest.fixture
def server(tmp_path):
    return workloads._Server("tiny", 4, tmp_path, 0, holdout=40)


def test_perturbed_slate_fires(server):
    st = server.segment(500.0, 0.2, check=False)
    assert server.check_segment(st) == []
    st.oracle = [(p, u, s[::-1], row, z) for p, u, s, row, z in st.oracle]  # wrong order
    assert len(server.check_segment(st)) == min(server.spec["oracle_samples"], st.requests)
    st.slates[0] = st.slates[0][:-1]
    assert "slate of" in server.check_segment(st)[0]


def test_short_or_duplicate_slate_fires():
    k = 4
    assert checks.check_slate_shapes([np.arange(k)], k) == []
    assert checks.check_slate_shapes([np.arange(k - 1)], k)
    assert checks.check_slate_shapes([np.array([0, 1, 1, 2])], k)


def test_skipped_refresh_fires(server):
    fe = server.frontend
    fe.ingest(server.held_edges, server.held_weights)
    # Embeddings still reflect the graph before the ingest.
    stale = checks.check_refresh_exact(fe.embedder.embeddings, fe.graph.graph, server.model, 4)
    assert stale and "not bitwise equal" in stale[0]
    fe.refresh(workers=1)
    assert checks.check_refresh_exact(fe.embedder.embeddings, fe.graph.graph, server.model, 4) == []


def test_bitwise_check_sees_one_ulp():
    a = np.linspace(0.0, 1.0, 16)
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    assert checks.check_bitwise("x", [a], [a.copy()]) == []
    assert checks.check_bitwise("x", [a], [b])


def test_stall_is_charged_to_later_requests():
    """Latency runs from the due time, so a 50 ms stall before serving
    shows up in every request that was due during it."""
    due = np.linspace(0.0, 0.02, 21)
    stalled = []

    def on_tick(now):
        if not stalled:
            stalled.append(now)
            time.sleep(0.05)

    st = run_open_loop(lambda users: [None] * len(users), np.arange(21), due,
                       batch_cap=8, on_tick=on_tick)
    assert st.latency_ms.min() >= 25.0
    assert st.latency_ms[0] >= 50.0
    assert st.backlog_max >= 8


def test_raised_request_counts_as_failed():
    def serve(users):
        raise RuntimeError("boom")

    st = run_open_loop(serve, np.arange(5), np.zeros(5), batch_cap=2)
    assert st.failed == 5 and st.slates == [None] * 5
    assert len(st.errors) == 3 and "boom" in st.errors[0]


def test_peak_memory_covers_only_the_block():
    with PeakMemory() as before:
        pass
    with PeakMemory() as mem:
        block = np.ones(25_000_000)  # 200 MB, touched
        del block
    if not mem.reset:
        pytest.skip("kernel refused to reset the high-water mark")
    assert mem.peak_mb - before.peak_mb > 150
