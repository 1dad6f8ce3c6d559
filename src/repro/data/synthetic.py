"""The synthetic Taobao-like world (the paper's closed traces, simulated).

The generator owns a ground-truth :class:`~repro.data.topics.TopicTree`.
Items are assigned to leaf topics; users carry affinity distributions
over leaves concentrated around a "home" leaf, with mass decaying in
tree distance — exactly the multi-granular community structure HiGNN is
designed to exploit (a user into "beach dresses" also leans toward the
broader "outdoor" subtree, per the paper's Fig. 1 narrative).

Clicks are sampled from the affinity distribution; purchases convert
clicks through a logistic oracle whose inputs include *parent-level*
affinity and a purchasing-power x price-tier match, so hierarchical
representations genuinely help CVR while flat ones saturate earlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import EcommerceDataset, InteractionLog, LabeledSamples
from repro.data.topics import TopicTree
from repro.utils.rng import derive_rng, ensure_rng

__all__ = [
    "WorldConfig",
    "GroundTruth",
    "TaobaoGenerator",
    "StreamedWorldConfig",
    "stream_world_to_shards",
]


def _sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class WorldConfig:
    """Knobs of the synthetic world.

    Defaults produce a laptop-scale analogue of Taobao #1; the cold-start
    dataset (#2) is derived from the same world via ``new_item_fraction``.
    """

    num_users: int = 1200
    num_items: int = 800
    branching: tuple[int, ...] = (4, 3, 3)
    topic_dim: int = 16
    feature_dim: int = 16
    feature_noise: float = 0.6
    interactions_per_user: float = 30.0
    exploration: float = 0.25  # share of clicks on uniformly random topics
    affinity_decay: float = 0.35  # mass multiplier per tree-distance step
    affinity_temperature: float = 1.0
    num_days: int = 8  # 7 train days + 1 test day (paper's split)
    new_item_fraction: float = 0.4  # items treated as "new arrivals"
    new_item_activity: float = 0.25  # interaction share reaching new items
    purchase_bias: float = -8.5
    purchase_leaf_weight: float = 5.0
    purchase_parent_weight: float = 3.5
    purchase_power_weight: float = 1.8
    purchase_new_item_penalty: float = -0.5  # new arrivals convert less
    purchase_noise: float = 0.35

    def __post_init__(self) -> None:
        if self.num_users < 2 or self.num_items < 2:
            raise ValueError("world needs at least 2 users and 2 items")
        if not 0.0 < self.affinity_decay < 1.0:
            raise ValueError("affinity_decay must be in (0, 1)")
        if not 0.0 <= self.new_item_fraction < 1.0:
            raise ValueError("new_item_fraction must be in [0, 1)")
        if self.num_days < 2:
            raise ValueError("need at least one train day and one test day")


@dataclass
class GroundTruth:
    """Oracle state of the world — used for evaluation, never by models.

    Attributes
    ----------
    tree:
        The latent topic hierarchy.
    item_leaf:
        Leaf-topic node id of every item.
    item_leaf_index:
        Same, as an index into ``tree.leaves`` (0-based, dense).
    user_affinity:
        ``(num_users, n_leaves)`` row-stochastic affinity matrix.
    user_home_leaf_index:
        Index (into ``tree.leaves``) of each user's home leaf.
    purchasing_power, price_tier:
        The latent drivers of the purchase oracle.
    """

    tree: TopicTree
    item_leaf: np.ndarray
    item_leaf_index: np.ndarray
    user_affinity: np.ndarray
    user_home_leaf_index: np.ndarray
    purchasing_power: np.ndarray
    price_tier: np.ndarray
    new_items: np.ndarray  # boolean mask of "new arrival" items
    config: WorldConfig

    def item_label_at_depth(self, depth: int) -> np.ndarray:
        """Ground-truth topic node of each item at the given tree depth."""
        return np.array(
            [self.tree.ancestor_at_depth(int(leaf), depth) for leaf in self.item_leaf]
        )

    def click_probability(self, user: int, item: int) -> float:
        """Oracle click propensity in [0, 1] (used by the A/B simulator)."""
        leaf_idx = int(self.item_leaf_index[item])
        affinity = float(self.user_affinity[user, leaf_idx])
        # Scale relative to the user's best leaf so probabilities are
        # meaningful across users with different concentration.
        # The operating point (~0.35 CTR for well-matched slates) mirrors
        # the production CTRs of the paper's Table IV.
        best = float(self.user_affinity[user].max())
        return float(_sigmoid(-3.2 + 2.8 * affinity / max(best, 1e-12)))

    def purchase_probability(self, user: int, item: int) -> float:
        """Oracle conversion propensity given a click (no noise term)."""
        cfg = self.config
        leaf_idx = int(self.item_leaf_index[item])
        leaf_aff = float(self.user_affinity[user, leaf_idx])
        parent_aff = self._parent_affinity(user, item)
        power_match = float(
            self.purchasing_power[user] * self.price_tier[item]
        )
        score = (
            cfg.purchase_bias
            + cfg.purchase_leaf_weight * leaf_aff / max(self.user_affinity[user].max(), 1e-12)
            + cfg.purchase_parent_weight * parent_aff
            + cfg.purchase_power_weight * power_match
        )
        if self.new_items[item]:
            score += cfg.purchase_new_item_penalty
        return float(_sigmoid(score))

    def click_probabilities(self, user: int, items: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`click_probability` over one user's slate.

        Element-for-element identical to the scalar oracle (same IEEE
        double expressions, evaluated per item) — the serving loop draws
        one uniform vector per slate against this.
        """
        items = np.asarray(items, dtype=np.int64)
        affinity = self.user_affinity[user, self.item_leaf_index[items]]
        best = max(float(self.user_affinity[user].max()), 1e-12)
        return _sigmoid(-3.2 + 2.8 * affinity / best)

    def purchase_probabilities(self, user: int, items: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`purchase_probability` over one user's slate."""
        items = np.asarray(items, dtype=np.int64)
        cfg = self.config
        leaf_idx = self.item_leaf_index[items]
        leaf_aff = self.user_affinity[user, leaf_idx]
        # Parent affinity summed once per distinct leaf in the slate,
        # through the same gathered-subset sum as the scalar oracle so
        # the values match bitwise.
        parent_aff = np.empty(len(items), dtype=np.float64)
        for leaf in np.unique(self.item_leaf[items]):
            siblings = self._sibling_leaf_indices(int(leaf))
            parent_aff[self.item_leaf[items] == leaf] = float(
                self.user_affinity[user, siblings].sum()
            )
        power_match = self.purchasing_power[user] * self.price_tier[items]
        score = (
            cfg.purchase_bias
            + cfg.purchase_leaf_weight * leaf_aff / max(float(self.user_affinity[user].max()), 1e-12)
            + cfg.purchase_parent_weight * parent_aff
            + cfg.purchase_power_weight * power_match
        )
        score = np.where(
            self.new_items[items], score + cfg.purchase_new_item_penalty, score
        )
        return _sigmoid(score)

    def _parent_affinity(self, user: int, item: int) -> float:
        """Summed affinity over the item's parent topic subtree."""
        leaf = int(self.item_leaf[item])
        siblings = self._sibling_leaf_indices(leaf)
        return float(self.user_affinity[user, siblings].sum())

    def _sibling_leaf_indices(self, leaf: int) -> np.ndarray:
        """Indices (into ``tree.leaves``) of the leaves sharing ``leaf``'s parent."""
        cache = getattr(self, "_sibling_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_sibling_cache", cache)
        if leaf not in cache:
            tree = self.tree
            parent = int(tree.parent[leaf])
            parent_depth = int(tree.depth[parent])
            cache[leaf] = np.array(
                [
                    i
                    for i, l in enumerate(tree.leaves)
                    if tree.ancestor_at_depth(int(l), parent_depth) == parent
                ]
            )
        return cache[leaf]


class TaobaoGenerator:
    """Generate :class:`EcommerceDataset` objects from one latent world.

    A single generator instance produces both the dense dataset
    (``build_dataset``, Taobao #1 analogue) and the cold-start dataset
    (``build_cold_start_dataset``, Taobao #2 analogue) from the same
    world so results are comparable.
    """

    def __init__(self, config: WorldConfig | None = None, seed: int | np.random.Generator | None = 0):
        self.config = config or WorldConfig()
        self.rng = ensure_rng(seed)
        self.truth = self._build_world()
        self._log = self._simulate_log()

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------
    def _build_world(self) -> GroundTruth:
        cfg = self.config
        rng = derive_rng(self.rng, 1)
        tree = TopicTree.generate(
            branching=cfg.branching, embedding_dim=cfg.topic_dim, rng=rng
        )
        n_leaves = tree.n_leaves

        # Items: leaf assignment is Zipf-tilted so popular topics exist.
        leaf_popularity = 1.0 / (np.arange(n_leaves) + 1.0) ** 0.6
        leaf_popularity /= leaf_popularity.sum()
        item_leaf_index = rng.choice(n_leaves, size=cfg.num_items, p=leaf_popularity)
        item_leaf = tree.leaves[item_leaf_index]

        # Users: home leaf + decaying affinity over tree distance.
        home = rng.choice(n_leaves, size=cfg.num_users, p=leaf_popularity)
        dist = tree.leaf_distance_matrix()  # (n_leaves, n_leaves)
        decay = cfg.affinity_decay ** (dist / cfg.affinity_temperature)
        affinity = decay[home]  # (num_users, n_leaves)
        # Individual taste noise keeps users within a community distinct.
        affinity = affinity * rng.uniform(0.5, 1.5, size=affinity.shape)
        affinity /= affinity.sum(axis=1, keepdims=True)

        purchasing_power = rng.uniform(-1.0, 1.0, size=cfg.num_users)
        price_tier = rng.uniform(-1.0, 1.0, size=cfg.num_items)
        n_new = int(round(cfg.new_item_fraction * cfg.num_items))
        new_items = np.zeros(cfg.num_items, dtype=bool)
        if n_new:
            new_items[rng.choice(cfg.num_items, size=n_new, replace=False)] = True

        return GroundTruth(
            tree=tree,
            item_leaf=item_leaf,
            item_leaf_index=item_leaf_index,
            user_affinity=affinity,
            user_home_leaf_index=home,
            purchasing_power=purchasing_power,
            price_tier=price_tier,
            new_items=new_items,
            config=cfg,
        )

    # ------------------------------------------------------------------
    # Interaction simulation
    # ------------------------------------------------------------------
    def _simulate_log(self) -> InteractionLog:
        cfg = self.config
        truth = self.truth
        rng = derive_rng(self.rng, 2)
        n_leaves = truth.tree.n_leaves

        # Pre-bucket items by leaf, split into established vs new pools.
        items_by_leaf: list[np.ndarray] = []
        new_by_leaf: list[np.ndarray] = []
        for leaf_idx in range(n_leaves):
            members = np.flatnonzero(truth.item_leaf_index == leaf_idx)
            items_by_leaf.append(members[~truth.new_items[members]])
            new_by_leaf.append(members[truth.new_items[members]])
        any_item_by_leaf = [
            np.flatnonzero(truth.item_leaf_index == leaf_idx)
            for leaf_idx in range(n_leaves)
        ]

        users_col: list[int] = []
        items_col: list[int] = []
        days_col: list[int] = []
        clicks_col: list[int] = []
        purchases_col: list[int] = []

        for user in range(cfg.num_users):
            n_inter = max(2, int(rng.poisson(cfg.interactions_per_user)))
            # Exploration: some clicks land on topics the user does not
            # care about (ads, misclicks, browsing) — these are the
            # low-affinity negatives a CVR model must learn to rank down.
            explore = rng.random(n_inter) < cfg.exploration
            leaves = np.where(
                explore,
                rng.integers(0, n_leaves, size=n_inter),
                rng.choice(n_leaves, size=n_inter, p=truth.user_affinity[user]),
            )
            for leaf_idx in leaves:
                day = int(rng.integers(cfg.num_days))
                use_new = rng.random() < cfg.new_item_activity
                pool = new_by_leaf[leaf_idx] if use_new else items_by_leaf[leaf_idx]
                if len(pool) == 0:
                    pool = any_item_by_leaf[leaf_idx]
                if len(pool) == 0:
                    continue
                item = int(rng.choice(pool))
                clicks = 1 + int(rng.geometric(0.6) - 1)
                p_buy = truth.purchase_probability(user, item)
                noisy = _sigmoid(
                    np.log(p_buy / (1 - p_buy + 1e-12) + 1e-12)
                    + rng.normal(scale=cfg.purchase_noise)
                )
                purchased = int(rng.random() < noisy)
                users_col.append(user)
                items_col.append(item)
                days_col.append(day)
                clicks_col.append(clicks)
                purchases_col.append(purchased)

        return InteractionLog(
            users=np.asarray(users_col, dtype=np.int64),
            items=np.asarray(items_col, dtype=np.int64),
            days=np.asarray(days_col, dtype=np.int64),
            clicks=np.asarray(clicks_col, dtype=np.int64),
            purchases=np.asarray(purchases_col, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Feature tables
    # ------------------------------------------------------------------
    def _user_profiles(self, rng: np.random.Generator) -> np.ndarray:
        """Observable user features: gender, power, activity, age bucket."""
        cfg = self.config
        gender = rng.integers(0, 2, size=cfg.num_users).astype(float)
        power = self.truth.purchasing_power + rng.normal(
            scale=0.2, size=cfg.num_users
        )
        activity = np.log1p(
            np.bincount(self._log.users, minlength=cfg.num_users).astype(float)
        )
        age = np.eye(4)[rng.integers(0, 4, size=cfg.num_users)]
        return np.column_stack([gender, power, activity, age])

    def _item_stats(self, train_log: InteractionLog, rng: np.random.Generator) -> np.ndarray:
        """Observable item features from the *training* period only."""
        cfg = self.config
        clicks = np.zeros(cfg.num_items)
        purchases = np.zeros(cfg.num_items)
        np.add.at(clicks, train_log.items, train_log.clicks.astype(float))
        np.add.at(purchases, train_log.items, train_log.purchases.astype(float))
        price = self.truth.price_tier + rng.normal(scale=0.1, size=cfg.num_items)
        return np.column_stack(
            [np.log1p(clicks), np.log1p(purchases), price, self.truth.new_items.astype(float)]
        )

    def _graph_features(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Noisy projections of the latent structure — the GNN inputs X_u, X_i."""
        cfg = self.config
        truth = self.truth
        leaf_embeddings = truth.tree.embeddings[truth.tree.leaves]
        projector = rng.normal(
            scale=1.0 / np.sqrt(cfg.topic_dim), size=(cfg.topic_dim, cfg.feature_dim)
        )
        user_latent = truth.user_affinity @ leaf_embeddings  # expected topic position
        item_latent = leaf_embeddings[truth.item_leaf_index]
        user_feats = user_latent @ projector + rng.normal(
            scale=cfg.feature_noise, size=(cfg.num_users, cfg.feature_dim)
        )
        item_feats = item_latent @ projector + rng.normal(
            scale=cfg.feature_noise, size=(cfg.num_items, cfg.feature_dim)
        )
        return user_feats, item_feats

    # ------------------------------------------------------------------
    # Dataset assembly
    # ------------------------------------------------------------------
    @property
    def log(self) -> InteractionLog:
        """The full simulated interaction log (all days)."""
        return self._log

    def build_dataset(self, name: str = "mini-taobao1") -> EcommerceDataset:
        """The dense analogue of Taobao #1: one week train, next day test."""
        cfg = self.config
        rng = derive_rng(self.rng, 3)
        train_days = set(range(cfg.num_days - 1))
        train_log = self._log.filter_days(train_days)
        test_log = self._log.filter_days({cfg.num_days - 1})
        user_feats, item_feats = self._graph_features(rng)
        graph = train_log.to_graph(
            cfg.num_users, cfg.num_items, user_feats, item_feats
        )
        return EcommerceDataset(
            name=name,
            graph=graph,
            train=LabeledSamples.from_log(train_log),
            test=LabeledSamples.from_log(test_log),
            user_profiles=self._user_profiles(rng),
            item_stats=self._item_stats(train_log, rng),
            log=self._log,
            ground_truth=self.truth,
            metadata={"train_days": sorted(train_days), "test_day": cfg.num_days - 1},
        )

    def build_cold_start_dataset(self, name: str = "mini-taobao2") -> EcommerceDataset:
        """The Taobao #2 analogue: new-arrival items only, original imbalance.

        The graph keeps *all* items (so the GNN can propagate through
        established ones, as in production) but train/test samples are
        restricted to interactions with new items, mirroring the paper's
        "click and transaction logs about new arrival products".
        """
        cfg = self.config
        rng = derive_rng(self.rng, 4)
        new_ids = np.flatnonzero(self.truth.new_items)
        train_days = set(range(cfg.num_days - 1))
        train_log_all = self._log.filter_days(train_days)
        train_log = train_log_all.filter_items(new_ids)
        test_log = self._log.filter_days({cfg.num_days - 1}).filter_items(new_ids)
        user_feats, item_feats = self._graph_features(rng)
        graph = train_log_all.to_graph(
            cfg.num_users, cfg.num_items, user_feats, item_feats
        )
        return EcommerceDataset(
            name=name,
            graph=graph,
            train=LabeledSamples.from_log(train_log),
            test=LabeledSamples.from_log(test_log),
            user_profiles=self._user_profiles(rng),
            item_stats=self._item_stats(train_log_all, rng),
            log=self._log,
            ground_truth=self.truth,
            metadata={
                "train_days": sorted(train_days),
                "test_day": cfg.num_days - 1,
                "cold_start": True,
                "new_items": new_ids.tolist(),
            },
        )


# ---------------------------------------------------------------------------
# Streamed million-vertex worlds (written straight to shard files)
# ---------------------------------------------------------------------------
@dataclass
class StreamedWorldConfig:
    """Knobs of the streamed cluster-structured world.

    Unlike :class:`WorldConfig`, nothing here is ever materialised as an
    edge list: users are generated in chunks of ``chunk_users`` and
    written straight into a :class:`~repro.shard.storage.ShardedCSR`
    builder, so peak memory is O(vertices + chunk) however many edges
    the world has.  ``within_cluster`` is the probability a click stays
    inside the user's latent cluster — the community structure HiGNN's
    level-1 K-means recovers.
    """

    num_users: int = 100_000
    num_items: int = 60_000
    num_clusters: int = 64
    mean_degree: float = 8.0
    within_cluster: float = 0.93
    cluster_skew: float = 0.6  # popularity ~ 1/(rank+1)^skew
    feature_dim: int = 16
    feature_noise: float = 0.25
    chunk_users: int = 8192

    def __post_init__(self) -> None:
        if self.num_users < 1 or self.num_items < 1:
            raise ValueError("world needs at least one user and one item")
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if not 0.0 <= self.within_cluster <= 1.0:
            raise ValueError("within_cluster must be in [0, 1]")
        if self.mean_degree <= 0:
            raise ValueError("mean_degree must be positive")
        if self.chunk_users < 1:
            raise ValueError("chunk_users must be >= 1")


def stream_world_to_shards(
    path,
    config: StreamedWorldConfig | None = None,
    num_shards: int = 4,
    seed: int | np.random.Generator | None = 0,
):
    """Generate a cluster-structured world directly into a store.

    Both vertex sides share one latent cluster space, and a fraction
    ``within_cluster`` of each user's clicks stays inside the user's
    cluster.  Edge weights count repeated clicks (duplicates are merged
    per user, exactly like ``BipartiteGraph``).  Returns the owner
    ``ShardedCSR``.

    Memory stays bounded: per-vertex arrays (clusters, degrees) plus one
    ``chunk_users`` batch of edges; the builder spills the item-side
    adjacency into ``num_shards`` item-id ranges and sorts one range at
    a time.  ``num_shards`` sets only that memory bound: the store's
    bytes are the same for any value.
    """
    from repro.shard.storage import ShardedCSRBuilder

    cfg = config or StreamedWorldConfig()
    assign_rng = derive_rng(ensure_rng(seed), 11)
    edge_rng = derive_rng(ensure_rng(seed), 13)
    feat_rng = derive_rng(ensure_rng(seed), 17)

    # Cluster popularity is zipf-tilted so shards face realistic skew.
    ranks = np.arange(cfg.num_clusters, dtype=np.float64)
    popularity = 1.0 / (ranks + 1.0) ** cfg.cluster_skew
    popularity /= popularity.sum()
    user_cluster = assign_rng.choice(cfg.num_clusters, size=cfg.num_users, p=popularity)
    item_cluster = assign_rng.choice(cfg.num_clusters, size=cfg.num_items, p=popularity)

    # Items grouped by cluster for O(1) within-cluster draws.
    item_counts = np.bincount(item_cluster, minlength=cfg.num_clusters)
    items_by_cluster = np.argsort(item_cluster, kind="stable")
    item_offsets = np.concatenate(([0], np.cumsum(item_counts)))

    centroids = feat_rng.normal(size=(cfg.num_clusters, cfg.feature_dim))

    with ShardedCSRBuilder(
        path,
        cfg.num_users,
        cfg.num_items,
        num_shards,
        user_feature_dim=cfg.feature_dim,
        item_feature_dim=cfg.feature_dim,
    ) as builder:
        for start in range(0, cfg.num_users, cfg.chunk_users):
            stop = min(start + cfg.chunk_users, cfg.num_users)
            count = stop - start
            clicks = np.maximum(edge_rng.poisson(cfg.mean_degree, size=count), 1)
            total = int(clicks.sum())
            rep_cluster = np.repeat(user_cluster[start:stop], clicks)
            stay = edge_rng.random(total) < cfg.within_cluster
            stay &= item_counts[rep_cluster] > 0  # empty clusters explore
            draw = edge_rng.random(total)
            local_pick = (draw * item_counts[rep_cluster]).astype(np.int64)
            within_item = items_by_cluster[
                np.minimum(
                    item_offsets[rep_cluster] + local_pick, cfg.num_items - 1
                )
            ]
            uniform_item = (draw * cfg.num_items).astype(np.int64)
            items = np.where(stay, within_item, uniform_item)

            # Merge repeat clicks per (user, item); weights = click counts.
            rep_user = np.repeat(np.arange(start, stop, dtype=np.int64), clicks)
            keys = rep_user * np.int64(cfg.num_items) + items
            unique_keys, weights = np.unique(keys, return_counts=True)
            edge_users = unique_keys // cfg.num_items
            edge_items = unique_keys % cfg.num_items
            degrees = np.bincount(edge_users - start, minlength=count)
            builder.append_users(
                start, degrees, edge_items, weights.astype(np.float64)
            )
            builder.set_user_features(
                start,
                centroids[user_cluster[start:stop]]
                + cfg.feature_noise * feat_rng.normal(size=(count, cfg.feature_dim)),
            )
        for start in range(0, cfg.num_items, cfg.chunk_users):
            stop = min(start + cfg.chunk_users, cfg.num_items)
            builder.set_item_features(
                start,
                centroids[item_cluster[start:stop]]
                + cfg.feature_noise
                * feat_rng.normal(size=(stop - start, cfg.feature_dim)),
            )
        return builder.finalize()
