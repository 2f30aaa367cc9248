"""Run configuration: one parser (missing keys take the dataclass defaults) and one merge."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from . import fluctuations as fl
from .ensemble import EnsembleSpec, finite_real, whole_number
from .periodogram import DEFAULT_OVERSAMPLE, MIN_SAMPLES, grid_size

FORMAT_VERSION = "1"
VALID_ORDERS = (2, 3, 4, 5, 6)
ENSEMBLE_KEYS = ("statistics", "m", "N", "k", "members", "master_seed", "nu2")
_ENSEMBLE_DEFAULTS = {f.name: f.default for f in fields(EnsembleSpec) if f.default is not MISSING}
_TOP_KEYS = ("format_version", "ensemble", "analysis", "out_dir")


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    ensemble: EnsembleSpec
    orders: tuple[int, ...] = VALID_ORDERS
    trim: float = fl.DEFAULT_TRIM
    l_max: int = fl.DEFAULT_L_MAX
    bin_width: float = fl.DEFAULT_BIN_WIDTH
    spacing_max: float = fl.DEFAULT_SPACING_MAX
    oversample: int = DEFAULT_OVERSAMPLE
    out_dir: str = "."

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
            "format_version": FORMAT_VERSION,
            "ensemble": self.ensemble.to_dict(),
            "analysis": {key: getattr(self, key) for key in _ANALYSIS_FIELDS}
            | {"orders": list(self.orders)},
            "out_dir": self.out_dir,
        }


_ANALYSIS_FIELDS = {"orders": lambda value, name: tuple(whole_number(o, name) for o in value),
                    "l_max": whole_number, "oversample": whole_number,
                    "trim": finite_real, "bin_width": finite_real, "spacing_max": finite_real}


def _block(value, what: str, keys=None) -> dict:
    """``value`` as a JSON object, holding only ``keys`` if they are given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(value if keys is None else keys))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    return value


def ensemble_from_dict(data, what="ensemble block", keys=ENSEMBLE_KEYS, **fixed) -> EnsembleSpec:
    """``data`` (only ``keys``) with ``fixed`` over it; members, master_seed, nu2 may be missing."""
    block = {**_block(data, what, keys), **fixed}
    try:
        return EnsembleSpec.from_dict({**_ENSEMBLE_DEFAULTS, **block})
    except KeyError as exc:
        raise ConfigError(f"{what} is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def config_from_dict(data) -> RunConfig:
    data = _block(data, "config", _TOP_KEYS)
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"format_version must be {FORMAT_VERSION!r}, got {version!r}")
    ensemble = ensemble_from_dict(data.get("ensemble", {}))
    analysis = _block(data.get("analysis", {}), "analysis block", _ANALYSIS_FIELDS)
    try:
        settings = {key: _ANALYSIS_FIELDS[key](value, key) for key, value in analysis.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid analysis block: {exc}") from exc
    if "out_dir" in data:
        settings["out_dir"] = str(data["out_dir"])
    return RunConfig(ensemble=ensemble, **settings)


def merge_layers(*layers: dict) -> dict:
    """One config dict from ``layers``, each over the last, key by key within a block."""
    merged: dict = {}
    for layer in layers:
        for key, value in _block(layer, "config", _TOP_KEYS).items():
            if key in ("ensemble", "analysis"):
                value = {**merged.get(key, {}), **_block(value, f"{key} block")}
            merged[key] = value
    return merged


def read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_json(path, "config"))
