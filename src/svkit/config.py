"""Run configuration shared by the CLI commands and development training.

An optional key=value config file supplies defaults; command-line flags
override it, and built-in defaults fill the rest (flags > file > defaults).
`RunConfig.validate` is the one place these settings are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

MODEL_KINDS = ("cnn3d", "lcn_dvector")
# Learning rate when neither a flag nor a config file sets one. The baseline
# has no batchnorm and diverges at the cube network's rate.
DEFAULT_LR = {"cnn3d": 3e-3, "lcn_dvector": 3e-4}


@dataclass
class RunConfig:
    zeta: int = 20
    n_dev_speakers: int | None = None
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
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_INT_KEYS = ("zeta", "n_dev_speakers", "batch", "epochs", "seed")
_FLOAT_KEYS = ("lr", "momentum")


def parse_config_file(path) -> dict:
    """key=value lines, '#' comments; keys must be RunConfig fields."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values
