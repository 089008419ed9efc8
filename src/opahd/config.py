"""Experiment configuration: a single JSON file with units in the key names.

All randomness flows from the one master seed recorded here; re-running an
identical config reproduces every output byte-for-byte.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
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


def _section(raw: dict, key: str) -> dict:
    """The object raw[key], empty when the key is omitted."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object")
    return section


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
# An omitted key takes the field's default. The analysis keys are
# AnalysisOptions' fields as they are.
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
}


def _stage(raw: dict) -> ChannelSpec:
    """A chain stage; unlike ChannelSpec, a config takes no "0.5" or true parameter."""
    spec = ChannelSpec(raw["kind"], {k: v for k, v in raw.items() if k != "kind"})
    for k in spec.param_names:
        _number(f"{spec.kind} channel parameter {k}", raw[k])
    return spec


def _dump(obj, keys) -> dict:
    return {key: _in_unit(getattr(obj, name), unit) if isinstance(unit, float)
            else getattr(obj, name) for key, name, unit in keys}


def _load(raw: dict, keys) -> dict:
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
            "analysis": asdict(self.analysis),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            version = raw.get("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ConfigError(f"unsupported schema_version {version}")
            chain_raw = _section(raw, "chain")
            stages_raw = chain_raw.get("stages", [])
            if not (isinstance(stages_raw, list)
                    and all(isinstance(st, dict) for st in stages_raw)):
                raise ConfigError("chain.stages must be a list of objects")
            stages = tuple(_stage(st) for st in stages_raw)
            chain = ChainModel(stages=stages, **_load(chain_raw, _CHAIN_KEYS))
            sections = {key: section_cls(**_load(_section(raw, key), keys))
                        for key, (section_cls, keys) in _SECTIONS.items()}
            return cls(chain=chain, analysis=AnalysisOptions(**_section(raw, "analysis")),
                       **sections, **_load(raw, _TOP_KEYS))
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
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return cls.from_dict(raw)
