"""Experiment configuration: a single JSON file with units in the key names.

All randomness flows from the one master seed recorded here; re-running an
identical config reproduces every output byte-for-byte.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import AnalysisOptions
from .gaussian import ChainModel, ChannelSpec
from .signal_chain import AcquisitionConfig, FrequencyResponse

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


def _in_unit(value: float, scale: float) -> float:
    """value expressed in a unit of size scale, chosen so that multiplying
    back by scale reproduces value bit-exactly (config round-trip contract)."""
    x = value / scale
    if x * scale == value:
        return x
    for cand in (math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
        if cand * scale == value:
            return cand
    return x


def _integer(key: str, value) -> int:
    """value as an int, refusing any value that int() would change (512.5, "8", true)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _number(key: str, value) -> float:
    """value as a float, refusing what JSON does not hold as a number ("0.4", true)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{key} must be a number, got {value!r}")


# Each section's keys as (JSON key, field, unit or converter), in file order.
# A unit, the key's unit in SI, loads as _number(key, v) * unit and dumps as
# _in_unit(value, unit); a converter, converter(key, v), applies at load only.
# An omitted key takes the field's default; a key not listed is refused. The
# analysis keys pass through as they are, so AnalysisOptions checks them.
_TOP_KEYS = (("seed", "seed", _integer),)
_CHAIN_KEYS = (("lo_phase_rad", "lo_phase", _number),)
_SECTIONS = {
    "acquisition": (AcquisitionConfig, (
        ("record_duration_ns", "record_duration", 1e-9),
        ("samples_per_frame", "samples_per_frame", _integer),
        ("frames", "frames", _integer),
        ("photocurrent_ma", "photocurrent", 1e-3),
        ("clearance_at_43ghz_db", "clearance_at_43ghz_db",
         lambda key, v: None if v is None else _number(key, v)),
    )),
    "response": (FrequencyResponse, (
        ("detector_f3db_ghz", "detector_f3db", 1e9),
        ("scope_cutoff_ghz", "scope_cutoff", 1e9),
        ("filter_order", "filter_order", _integer),
    )),
    "analysis": (AnalysisOptions, tuple((name, name, lambda key, v: v) for name in (
        "mask_center_ghz", "mask_width_ghz", "histogram_bins", "window"))),
}


def _dump(obj, keys) -> dict:
    return {key: _in_unit(getattr(obj, name), unit) if isinstance(unit, float)
            else getattr(obj, name) for key, name, unit in keys}


def _load(raw: dict, where: str, keys, others=()) -> dict:
    """The fields that the object raw, called where in messages, gives through
    keys; a key that neither keys nor others lists is refused."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    listed = {key for key, _, _ in keys}.union(others)
    for key in raw:
        if key not in listed:
            raise ConfigError(f"{where} has no key {key!r}")
    return {name: _number(key, raw[key]) * unit if isinstance(unit, float)
            else unit(key, raw[key]) for key, name, unit in keys if key in raw}


@dataclass(frozen=True)
class ExperimentConfig:
    chain: ChainModel = field(default_factory=ChainModel)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    response: FrequencyResponse = field(default_factory=FrequencyResponse)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:       # SeedSequence takes non-negative entropy only
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            **_dump(self, _TOP_KEYS),
            "chain": {**_dump(self.chain, _CHAIN_KEYS),
                      "stages": [{"kind": s.kind, **s.params} for s in self.chain.stages]},
            **{key: _dump(getattr(self, key), keys) for key, (_, keys) in _SECTIONS.items()},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            top = _load(raw, "config", _TOP_KEYS, ("schema_version", "chain", *_SECTIONS))
            version = raw.get("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ConfigError(f"unsupported schema_version {version}")
            chain_raw = raw.get("chain", {})
            chain = _load(chain_raw, "chain", _CHAIN_KEYS, ("stages",))
            stages_raw = chain_raw.get("stages", [])
            if not (isinstance(stages_raw, list)
                    and all(isinstance(st, dict) for st in stages_raw)):
                raise ConfigError("chain.stages must be a list of objects")
            stages = tuple(ChannelSpec(st["kind"], {k: v for k, v in st.items() if k != "kind"})
                           for st in stages_raw)
            sections = {key: section_cls(**_load(raw.get(key, {}), key, keys))
                        for key, (section_cls, keys) in _SECTIONS.items()}
            return cls(chain=ChainModel(stages=stages, **chain), **sections, **top)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"invalid configuration: {err}") from err

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON: {err}") from err
        return cls.from_dict(raw)
