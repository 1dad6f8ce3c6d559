"""Shared utilities: RNG management, configuration, logging, tables."""

from repro.utils.rng import RngMixin, derive_rng, ensure_rng
from repro.utils.config import (
    HiGNNConfig,
    KMeansConfig,
    SageConfig,
    TrainConfig,
)
from repro.utils.logging import configure_logging, get_logger, reset_logging
from repro.utils.tables import format_table

__all__ = [
    "RngMixin",
    "derive_rng",
    "ensure_rng",
    "HiGNNConfig",
    "KMeansConfig",
    "SageConfig",
    "TrainConfig",
    "get_logger",
    "configure_logging",
    "reset_logging",
    "format_table",
]
