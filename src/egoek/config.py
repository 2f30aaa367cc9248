"""Run configuration: ensemble parameters plus analysis switches."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .ensemble import EnsembleSpec
from .periodogram import MIN_SAMPLES, grid_size

FORMAT_VERSION = "1"
VALID_ORDERS = (2, 3, 4, 5, 6)


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    ensemble: EnsembleSpec
    orders: tuple[int, ...] = VALID_ORDERS
    trim: float = 0.10
    l_max: int = 60
    bin_width: float = 0.1
    spacing_max: float = 4.0
    oversample: int = 4
    out_dir: str = "."
    format_version: str = FORMAT_VERSION

    def __post_init__(self):
        if not self.orders or any(o not in VALID_ORDERS for o in self.orders):
            raise ConfigError(f"orders must be a non-empty subset of {VALID_ORDERS}")
        if len(set(self.orders)) != len(self.orders):
            raise ConfigError(f"orders must not repeat, got {list(self.orders)}")
        if not 0.0 <= self.trim < 1.0:
            raise ConfigError("trim must lie in [0, 1)")
        if self.l_max < 2:
            raise ConfigError("l_max must be at least 2")
        if not self.bin_width > 0:
            raise ConfigError("bin_width must be positive")
        if not self.spacing_max > 0:
            raise ConfigError("spacing_max must be positive")
        try:
            grid_size(MIN_SAMPLES, self.oversample)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "ensemble": self.ensemble.to_dict(),
            "analysis": {
                "orders": list(self.orders),
                "trim": self.trim,
                "l_max": self.l_max,
                "bin_width": self.bin_width,
                "spacing_max": self.spacing_max,
                "oversample": self.oversample,
            },
            "out_dir": self.out_dir,
        }


def config_from_dict(data: dict) -> RunConfig:
    if "ensemble" not in data:
        raise ConfigError("config requires an 'ensemble' block")
    try:
        ensemble = EnsembleSpec.from_dict(
            {"members": 50, "master_seed": 0, "nu2": 1.0, **data["ensemble"]}
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid ensemble block: {exc}") from exc
    analysis = data.get("analysis", {})
    try:
        return RunConfig(
            ensemble=ensemble,
            orders=tuple(analysis.get("orders", VALID_ORDERS)),
            trim=float(analysis.get("trim", 0.10)),
            l_max=int(analysis.get("l_max", 60)),
            bin_width=float(analysis.get("bin_width", 0.1)),
            spacing_max=float(analysis.get("spacing_max", 4.0)),
            oversample=int(analysis.get("oversample", 4)),
            out_dir=str(data.get("out_dir", ".")),
            format_version=str(data.get("format_version", FORMAT_VERSION)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid analysis block: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
