"""Shared fixtures and reporting helpers for the reproduction benches.

Each ``test_*`` module regenerates one table or figure of the paper.
Results are printed to the terminal (bypassing capture) and appended to
``benchmarks/results/`` so a full ``pytest benchmarks/ --benchmark-only``
run leaves a complete experiment record.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.data import load_dataset, load_query_dataset

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--check-baseline",
        action="store_true",
        default=False,
        help=(
            "opt-in: re-time the hot paths and compare against the "
            "committed BENCH_hotpaths.json (benchmarks/hotpaths.py --check)"
        ),
    )


@pytest.fixture()
def report(capsys):
    """Callable writing a block of text to terminal + results file."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        block = f"\n===== {name} =====\n{text}\n"
        with capsys.disabled():
            print(block)
        with open(RESULTS_DIR / f"{name}.txt", "w") as fh:
            fh.write(text + "\n")

    return _report


@pytest.fixture(autouse=True)
def _sweep_stray_shard_dirs():
    """Remove shard stores a failed bench left registered but undeleted.

    Shard directories live on disk (often many GB at bench scale), so a
    bench that dies between build and destroy must not leak them into
    the workspace; owners deregister on destroy, making the registry
    diff exactly the stray set.
    """
    import shutil

    from repro.shard import active_shard_dirs, forget_shard_dir

    before = active_shard_dirs()
    yield
    for stray in sorted(active_shard_dirs() - before):
        shutil.rmtree(stray, ignore_errors=True)
        forget_shard_dir(stray)


@pytest.fixture(scope="session")
def small_ds1():
    """The Taobao #1 analogue at bench scale."""
    return load_dataset("mini-taobao1", size="small", seed=0)


@pytest.fixture(scope="session")
def small_ds2():
    """The Taobao #2 (cold-start) analogue at bench scale."""
    return load_dataset("mini-taobao2", size="small", seed=0)


@pytest.fixture(scope="session")
def small_ds3():
    """The Taobao #3 (query-item) analogue at bench scale."""
    return load_query_dataset(size="small", seed=0)


@pytest.fixture(scope="session")
def taxonomy_artifacts(small_ds3):
    """One L=4 taxonomy fit shared by Table VII, Fig. 5 and the online A/B.

    Returns ``(hierarchy, hignn_taxonomy, shoal_taxonomy, counts)`` with
    SHOAL cut at the same per-level cluster counts ("we set SHOAL's
    number of clusters as same as HiGNN's", Section V-D-2).
    """
    from repro.taxonomy import (
        TaxonomyPipelineConfig,
        build_shoal_taxonomy,
        build_taxonomy,
        describe_taxonomy,
        fit_query_item_hignn,
    )

    pipeline = TaxonomyPipelineConfig(levels=4, embedding_dim=16)
    hierarchy, _ = fit_query_item_hignn(small_ds3, pipeline, rng=0)
    hignn_tax = build_taxonomy(hierarchy, small_ds3)
    describe_taxonomy(hignn_tax, small_ds3)
    counts = [len(hignn_tax.at_level(l)) for l in range(1, hignn_tax.num_levels + 1)]
    shoal_tax = build_shoal_taxonomy(small_ds3, counts, rng=0)
    return hierarchy, hignn_tax, shoal_tax, counts


# Re-exported so bench modules can `from conftest import format_table`.
from repro.utils.tables import format_table  # noqa: E402  (fixture file)
