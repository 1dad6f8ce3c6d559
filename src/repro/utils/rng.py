"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed
or a ``numpy.random.Generator``.  Components never touch the global numpy
RNG, so independent pipeline stages stay reproducible even when they are
re-ordered or run in isolation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ensure_rng", "derive_rng", "clone_rng", "counter_uniforms", "RngMixin"]


def ensure_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    ``None`` yields a freshly seeded generator (non-deterministic); an
    integer seeds a new generator; an existing generator is returned
    unchanged so callers can thread one RNG through a pipeline.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(rng: int | np.random.Generator, *keys: int) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Useful when one seed must fan out into several independent streams
    (e.g. model init vs. negative sampling) without coupling their state.
    ``keys`` disambiguate multiple children derived from the same parent.

    When ``rng`` is a plain integer the child is a pure function of
    ``(rng, *keys)`` and no generator state is consumed — the form the
    parallel execution layer uses to hand each work chunk its own stream
    regardless of how many workers execute the chunks.
    """
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(np.random.SeedSequence([int(rng), *keys]))
    seed_material = list(rng.integers(0, 2**63 - 1, size=2)) + list(keys)
    return np.random.default_rng(np.random.SeedSequence(seed_material))


def clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator starting at ``rng``'s current state.

    Draws from the clone reproduce what draws from ``rng`` would have
    produced, without advancing ``rng`` itself — used to keep the first
    k-means restart bit-identical to the single-restart path while the
    remaining restarts run on derived streams.
    """
    clone = np.random.default_rng()
    clone.bit_generator.state = rng.bit_generator.state
    return clone


_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment (2**64 / golden ratio)


def _splitmix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser: a bijective avalanche on uint64 arrays."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def counter_uniforms(keys: tuple[int, ...], rows: np.ndarray, width: int) -> np.ndarray:
    """``(len(rows), width)`` uniforms in ``[0, 1)``: entry ``(r, c)`` is
    splitmix64 at counter ``rows[r] * 2**32 + c`` of the stream seeded by
    hashing ``keys``, so any subset of rows, in any order or grouping,
    reads the same values.  Rows and ``width`` must be below ``2**32``.
    """
    seed = np.zeros(1, dtype=np.uint64)
    for key in keys:
        seed = _splitmix((seed ^ np.uint64(key)) + _GAMMA)
    rows = np.asarray(rows, dtype=np.uint64)
    counters = (rows[:, None] << 32) | np.arange(width, dtype=np.uint64)
    bits = _splitmix(counters * _GAMMA + seed)
    # The top 53 bits as a double, as numpy's Generator.random builds them.
    return (bits >> 11) * (1.0 / (1 << 53))


class RngMixin:
    """Mixin giving a class a lazily created ``self.rng`` attribute."""

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        self.rng = ensure_rng(seed)

    def reseed(self, seed: int | np.random.Generator | None) -> None:
        """Replace the internal generator (e.g. between experiment runs)."""
        self.rng = ensure_rng(seed)
