"""Glue between trained models and the serving simulator.

Two entry points:

* :func:`cvr_score_table` — precompute model scores for every
  (user, candidate) pair, feeding :class:`ScoreTableRecommender`
  (the Table IV arms).
* :func:`build_taxonomy_ab_world` + :func:`user_topics_from_history` —
  synthesise a browsing population over the *query-item* world's topic
  tree so taxonomy-driven recommendations can be A/B tested
  (Section V-D-4).
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import GroundTruth, WorldConfig
from repro.data.synthetic_text import QueryItemDataset
from repro.obs import span
from repro.obs.metrics import counter_add
from repro.prediction.cvr_model import CVRModel
from repro.prediction.features import FeatureAssembler
from repro.taxonomy.builder import Taxonomy
from repro.utils.rng import derive_rng, ensure_rng

__all__ = [
    "cvr_score_table",
    "build_taxonomy_ab_world",
    "sample_user_histories",
    "user_topics_from_history",
]


def cvr_score_table(
    model: CVRModel,
    assembler: FeatureAssembler,
    num_users: int,
    candidate_items: np.ndarray,
    batch_users: int = 64,
) -> np.ndarray:
    """(num_users, num_candidates) model scores for slate ranking,
    scored ``batch_users`` users at a time."""
    candidate_items = np.asarray(candidate_items, dtype=np.int64)
    n_cand = len(candidate_items)
    table = np.zeros((num_users, n_cand))
    with span("serving.score_table", num_users=num_users, num_candidates=n_cand):
        for start in range(0, num_users, batch_users):
            stop = min(start + batch_users, num_users)
            users = np.repeat(np.arange(start, stop), n_cand)
            items = np.tile(candidate_items, stop - start)
            feats = assembler.assemble(users, items)
            counter_add("serving.pairs_scored", (stop - start) * n_cand)
            table[start:stop] = model.predict_proba(feats).reshape(stop - start, n_cand)
    return table


def build_taxonomy_ab_world(
    dataset: QueryItemDataset,
    num_users: int = 1000,
    affinity_decay: float = 0.35,
    seed: int | np.random.Generator | None = 0,
) -> GroundTruth:
    """A browsing population over the query-world's items and topic tree.

    Users get home leaves and decaying affinities exactly like the
    prediction world, but the item table is the query–item dataset's, so
    taxonomy recommenders built on that dataset can be evaluated online.
    """
    rng = ensure_rng(seed)
    tree = dataset.tree
    n_leaves = tree.n_leaves
    leaf_index = {int(l): i for i, l in enumerate(tree.leaves)}
    item_leaf_index = np.array([leaf_index[int(l)] for l in dataset.item_leaf])

    home = rng.integers(0, n_leaves, size=num_users)
    dist = tree.leaf_distance_matrix()
    affinity = affinity_decay ** dist[home].astype(float)
    affinity = affinity * rng.uniform(0.5, 1.5, size=affinity.shape)
    affinity /= affinity.sum(axis=1, keepdims=True)

    num_items = dataset.num_items
    return GroundTruth(
        tree=tree,
        item_leaf=dataset.item_leaf.copy(),
        item_leaf_index=item_leaf_index,
        user_affinity=affinity,
        user_home_leaf_index=home,
        purchasing_power=rng.uniform(-1.0, 1.0, size=num_users),
        price_tier=rng.uniform(-1.0, 1.0, size=num_items),
        new_items=np.zeros(num_items, dtype=bool),
        config=WorldConfig(num_users=num_users, num_items=num_items),
    )


def sample_user_histories(
    truth: GroundTruth,
    items_per_user: int = 5,
    seed: int | np.random.Generator | None = 0,
) -> dict[int, list[int]]:
    """Short click histories sampled from each user's true affinity.

    These are the 'recently clicked items' a production system would
    observe; the taxonomy recommender sees only these, never the truth.
    """
    rng = ensure_rng(seed)
    n_leaves = truth.user_affinity.shape[1]
    items_by_leaf = [
        np.flatnonzero(truth.item_leaf_index == leaf) for leaf in range(n_leaves)
    ]
    histories: dict[int, list[int]] = {}
    for user in range(len(truth.user_affinity)):
        leaves = rng.choice(n_leaves, size=items_per_user, p=truth.user_affinity[user])
        history: list[int] = []
        for leaf in leaves:
            pool = items_by_leaf[leaf]
            if len(pool):
                history.append(int(rng.choice(pool)))
        histories[user] = history
    return histories


def user_topics_from_history(
    taxonomy: Taxonomy,
    histories: dict[int, list[int]],
    level: int = 1,
) -> dict[int, list[str]]:
    """Map users to the taxonomy topics containing their history items."""
    item_to_topic: dict[int, str] = {}
    for topic in taxonomy.at_level(level):
        for item in topic.items:
            item_to_topic[int(item)] = topic.topic_id
    user_topics: dict[int, list[str]] = {}
    for user, history in histories.items():
        topics: list[str] = []
        for item in history:
            topic_id = item_to_topic.get(int(item))
            if topic_id is not None and topic_id not in topics:
                topics.append(topic_id)
        user_topics[user] = topics
    return user_topics
