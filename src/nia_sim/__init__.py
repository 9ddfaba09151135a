"""Noise-induced adiabaticity simulations for driven two-level systems."""

from .config import RunConfig, load_config, validate
from .model import (NoiseNormalization, NoiseSpec, SingleQubitSchedule, SpectatorSchedule,
                    TwoQubitSchedule, realize_noise)

__version__ = "0.1.0"

__all__ = [
    "NoiseNormalization",
    "NoiseSpec",
    "RunConfig",
    "SingleQubitSchedule",
    "SpectatorSchedule",
    "TwoQubitSchedule",
    "load_config",
    "realize_noise",
    "validate",
    "__version__",
]
