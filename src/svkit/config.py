"""Run configuration shared by the CLI commands and development training.

The CLI sets each field from its command-line flag; a field without one
keeps the default below. `RunConfig.validate` is the one place these
settings are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

MODEL_KINDS = ("cnn3d", "lcn_dvector")
# Learning rate when no flag sets one. The baseline has no batchnorm and
# diverges at the cube network's rate.
DEFAULT_LR = {"cnn3d": 3e-3, "lcn_dvector": 3e-4}


@dataclass
class RunConfig:
    zeta: int = 20
    lr: float | None = None  # None until validate fills it from DEFAULT_LR of the model
    momentum: float = 0.9
    batch: int = 8
    epochs: int = 20
    seed: int = 0
    model: str = "cnn3d"

    def validate(self) -> "RunConfig":
        """Fill an unset lr from DEFAULT_LR, then check every setting; returns self."""
        if self.zeta < 1:
            raise ConfigError(f"zeta must be >= 1, got {self.zeta}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.lr is None:
            self.lr = DEFAULT_LR[self.model]
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite positive number, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self
