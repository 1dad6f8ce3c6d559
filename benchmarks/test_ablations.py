"""Ablation benches for the design choices DESIGN.md calls out.

Not in the paper's tables, but each isolates a decision the paper (or
this reproduction) made:

1. aggregator type         — the paper uses mean "for demonstration";
2. K-means variant         — single-pass is the paper's scaling choice;
3. negative distribution   — degree^0.75 vs uniform P_n (Eq. 5);
4. similarity head         — paper-literal MLP vs dot vs hybrid (see
                             repro.core.loss for why hybrid is default);
5. hierarchy concat        — z^H concatenation vs last-level only.

Each ablation trains at tiny scale and reports downstream quality:
user-cluster purity against the generator's home-leaf communities
(unsupervised stages) or test AUC (feature ablation).
"""

import dataclasses

import numpy as np

from conftest import format_table
from repro.clustering.kmeans import kmeans
from repro.core.hignn import HiGNN
from repro.core.sage import BipartiteGraphSAGE
from repro.core.trainer import SageTrainer
from repro.data import load_dataset
from repro.metrics import auc as auc_metric
from repro.prediction import CVRTrainConfig, FeatureAssembler, train_cvr_model
from repro.prediction.experiment import _prepare_train_samples
from repro.utils.config import HiGNNConfig, KMeansConfig, SageConfig, TrainConfig
from repro.utils.rng import ensure_rng

TRAIN = TrainConfig(epochs=6, batch_size=256, learning_rate=5e-3)
SAGE = SageConfig(embedding_dim=16)


def _purity(labels, truth_labels):
    total = 0
    for c in np.unique(labels):
        members = truth_labels[labels == c]
        total += np.bincount(members).max()
    return total / len(truth_labels)


def _user_purity_after_training(dataset, sage_config, seed=0):
    module = BipartiteGraphSAGE(
        dataset.graph.user_features.shape[1],
        dataset.graph.item_features.shape[1],
        sage_config,
        rng=seed,
    )
    SageTrainer(module, dataset.graph, TRAIN, rng=seed).fit()
    z_users, _ = module.embed_all(dataset.graph)
    k = dataset.ground_truth.tree.n_leaves
    labels = kmeans(z_users, k, rng=seed).labels
    return _purity(labels, dataset.ground_truth.user_home_leaf_index)


def test_ablation_aggregator(benchmark, report):
    dataset = load_dataset("mini-taobao1", size="tiny", seed=0)

    def run():
        scores = {}
        for agg in ("mean", "sum", "max"):
            cfg = dataclasses.replace(SAGE, aggregator=agg)
            scores[agg] = _user_purity_after_training(dataset, cfg)
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[agg, f"{p:.3f}"] for agg, p in scores.items()]
    report("ablation_aggregator", format_table(["Aggregator", "User purity"], rows))
    chance = 1.0 / dataset.ground_truth.tree.n_leaves
    assert all(p > chance for p in scores.values())


def test_ablation_negative_distribution(benchmark, report):
    dataset = load_dataset("mini-taobao1", size="tiny", seed=0)

    def run():
        scores = {}
        for dist in ("degree", "uniform"):
            cfg = dataclasses.replace(SAGE, negative_distribution=dist)
            scores[dist] = _user_purity_after_training(dataset, cfg)
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[d, f"{p:.3f}"] for d, p in scores.items()]
    report("ablation_negatives", format_table(["P_n", "User purity"], rows))
    chance = 1.0 / dataset.ground_truth.tree.n_leaves
    assert all(p > chance for p in scores.values())


def test_ablation_similarity_head(benchmark, report):
    dataset = load_dataset("mini-taobao1", size="tiny", seed=0)

    def run():
        scores = {}
        for head in ("mlp", "dot", "hybrid"):
            cfg = dataclasses.replace(SAGE, similarity_head=head)
            scores[head] = _user_purity_after_training(dataset, cfg)
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[h, f"{p:.3f}"] for h, p in scores.items()]
    report("ablation_head", format_table(["Similarity head", "User purity"], rows))
    # The hybrid head (metric anchor + MLP refinement) should not lose
    # to the paper-literal pure MLP head on clusterability.
    assert scores["hybrid"] >= scores["mlp"] - 0.05


def test_ablation_kmeans_variant(benchmark, report):
    dataset = load_dataset("mini-taobao1", size="tiny", seed=0)

    def run():
        hierarchy_scores = {}
        for algorithm in ("lloyd", "minibatch", "single_pass"):
            config = HiGNNConfig(
                levels=1,
                sage=SAGE,
                kmeans=KMeansConfig(algorithm=algorithm),
                train=TRAIN,
            )
            hierarchy = HiGNN(config, seed=0).fit(dataset.graph)
            labels = hierarchy.levels[0].user_assignment
            hierarchy_scores[algorithm] = _purity(
                labels, dataset.ground_truth.user_home_leaf_index
            )
        return hierarchy_scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[a, f"{p:.3f}"] for a, p in scores.items()]
    report("ablation_kmeans", format_table(["K-means variant", "User purity"], rows))
    # Single-pass trades little quality for its one-pass cost model.
    assert scores["single_pass"] > scores["lloyd"] - 0.2


def test_ablation_negative_counts_and_gamma(benchmark, report):
    """Q_u/Q_i sample counts and the gamma weight-feature value (Eq. 5).

    The gamma row documents the 'label leak' failure mode: with a tiny
    gamma the similarity head separates positives from negatives using
    the weight input alone, so embeddings stop improving (see
    repro/utils/config.py).
    """
    dataset = load_dataset("mini-taobao1", size="tiny", seed=0)

    def run():
        scores = {}
        for q in (2, 5, 10):
            cfg = dataclasses.replace(
                SAGE, negative_samples_user=q, negative_samples_item=q
            )
            scores[f"Q={q}"] = _user_purity_after_training(dataset, cfg)
        for gamma in (0.1, 1.0):
            cfg = dataclasses.replace(SAGE, negative_weight=gamma)
            scores[f"gamma={gamma}"] = _user_purity_after_training(dataset, cfg)
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, f"{p:.3f}"] for name, p in scores.items()]
    report(
        "ablation_negative_counts_gamma",
        format_table(["Setting", "User purity"], rows),
    )
    chance = 1.0 / dataset.ground_truth.tree.n_leaves
    assert all(p > chance for p in scores.values())


def test_ablation_hierarchy_concat_vs_last_level(benchmark, report):
    dataset = load_dataset("mini-taobao1", size="tiny", seed=0)

    def run():
        config = HiGNNConfig(levels=2, sage=SAGE, train=TRAIN)
        hierarchy = HiGNN(config, seed=0).fit(dataset.graph)
        results = {}
        variants = {
            "concat (z^H)": (
                hierarchy.hierarchical_user_embeddings(),
                hierarchy.hierarchical_item_embeddings(),
                [
                    (
                        hierarchy.user_level_embeddings(l),
                        hierarchy.item_level_embeddings(l),
                    )
                    for l in (1, 2)
                ],
            ),
            "last level only": (
                hierarchy.user_level_embeddings(2),
                hierarchy.item_level_embeddings(2),
                [
                    (
                        hierarchy.user_level_embeddings(2),
                        hierarchy.item_level_embeddings(2),
                    )
                ],
            ),
        }
        for name, (ur, ir, inter) in variants.items():
            assembler = FeatureAssembler.for_dataset(
                dataset, ur, ir, interactions=inter
            )
            train = _prepare_train_samples(dataset, ensure_rng(0))
            x, y = assembler.assemble_samples(train)
            model, _ = train_cvr_model(x, y, CVRTrainConfig(epochs=12), rng=0)
            x_test, y_test = assembler.assemble_samples(dataset.test)
            results[name] = auc_metric(y_test, model.predict_proba(x_test))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[n, f"{v:.4f}"] for n, v in results.items()]
    report("ablation_concat", format_table(["Representation", "AUC"], rows))
    # The paper's concatenation keeps the individual-level signal that a
    # coarse-only representation throws away.
    assert results["concat (z^H)"] > results["last level only"] - 0.02
