"""Correctness checks run after each measured window.

Each check returns a list of failure messages (empty when it passes),
so a workload can count failures against attempted operations and a
test can feed it deliberately broken inputs.
"""

from __future__ import annotations

import numpy as np

AUC_FLOOR = 0.55  # paper-default HiGNN on mini-taobao1 scored 0.62-0.74 over 30 seeds


def check_hierarchy(hierarchy) -> list[str]:
    """Finite embeddings at every level, Eq. 6 weight conservation at
    every coarsen (a coarse edge's weight is the sum of the fine edges
    it merges, so the total weight is unchanged)."""
    failures = []
    for rec in hierarchy.levels:
        for side, z in (("user", rec.user_embeddings), ("item", rec.item_embeddings)):
            if not np.isfinite(z).all():
                failures.append(f"level {rec.level}: non-finite {side} embeddings")
        fine = rec.graph.total_weight
        coarse = rec.coarse_graph.total_weight
        if abs(coarse - fine) > 1e-9 * max(abs(fine), 1.0):
            failures.append(
                f"level {rec.level}: coarsen total weight {coarse!r} != {fine!r}"
            )
    return failures


def check_auc(value: float, floor: float = AUC_FLOOR) -> list[str]:
    if not np.isfinite(value) or value <= floor:
        return [f"test AUC {value!r} not a finite value above {floor}"]
    return []


def check_slate_shapes(slates, k: int) -> list[str]:
    """Every slate holds exactly ``k`` distinct items."""
    failures = []
    for pos, slate in enumerate(slates):
        if slate is None:
            continue  # the request raised; already counted as failed
        if len(slate) != k or len(np.unique(slate)) != k:
            failures.append(f"request {pos}: slate of {len(slate)} items, k={k}")
    return failures


def check_slates_against_oracle(samples, k: int) -> list[str]:
    """``samples`` holds ``(request, user, slate, user_row, z_item)``, the
    embeddings as they were when the request was served; each slate must
    equal a stable full sort of that user's scores."""
    failures = []
    for pos, user, slate, user_row, z_item in samples:
        scores = z_item @ user_row
        want = np.argsort(-scores, kind="mergesort")[:k]
        if not np.array_equal(np.asarray(slate), want):
            failures.append(f"request {pos}: slate for user {user} differs from oracle")
    return failures


def check_bitwise(name: str, got, want) -> list[str]:
    """Arrays in ``got`` and ``want`` are identical, byte for byte."""
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        if g.shape != w.shape or g.dtype != w.dtype or g.tobytes() != w.tobytes():
            return [f"{name}: not bitwise equal to the reference"]
    return []


def check_refresh_exact(embeddings, graph, model, seed: int) -> list[str]:
    """Refreshed embeddings equal a fresh full pass over ``graph``."""
    from repro.streaming import StreamingEmbedder

    want = StreamingEmbedder(model, sample_seed=seed).full_embed(graph, workers=1)
    return check_bitwise("refreshed embeddings vs full_embed", embeddings, want)
