"""Experiment configuration: a single JSON file with units in the key names.

All randomness flows from the one master seed recorded here; re-running an
identical config reproduces every output byte-for-byte.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .gaussian import ChainModel, ChannelSpec
from .signal_chain import AcquisitionConfig, FrequencyResponse
from .traceio import write_json

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


def _fields(raw: dict, **keys) -> dict:
    """Keyword arguments {field: conversion(raw[key])} for the keys present in
    raw, so that an omitted key takes the field's dataclass default."""
    return {name: convert(raw[key]) for key, (name, convert) in keys.items() if key in raw}


def _section(raw: dict, key: str) -> dict:
    """The object raw[key], empty when the key is omitted."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object")
    return section


@dataclass(frozen=True)
class AnalysisOptions:
    mask_center_ghz: float = 34.0
    mask_width_ghz: float = 1.0
    histogram_bins: int = 200
    window: str = "rectangular"

    def __post_init__(self):
        if self.histogram_bins < 2:
            raise ConfigError("histogram_bins must be >= 2")
        if self.mask_width_ghz < 0:
            raise ConfigError("mask_width_ghz must be >= 0")
        if self.window not in ("rectangular", "hann"):
            raise ConfigError(f"analysis window must be 'rectangular' or 'hann', "
                              f"got {self.window!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    chain: ChainModel = field(default_factory=ChainModel)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    response: FrequencyResponse = field(default_factory=FrequencyResponse)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    seed: int = 0

    def to_dict(self) -> dict:
        acq = self.acquisition
        resp = self.response
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "chain": {
                "lo_phase_rad": self.chain.lo_phase,
                "stages": [{"kind": s.kind, **s.params} for s in self.chain.stages],
            },
            "acquisition": {
                "record_duration_ns": _in_unit(acq.record_duration, 1e-9),
                "samples_per_frame": acq.samples_per_frame,
                "frames": acq.frames,
                "photocurrent_ma": _in_unit(acq.photocurrent, 1e-3),
                "clearance_at_43ghz_db": acq.clearance_at_43ghz_db,
            },
            "response": {
                "detector_f3db_ghz": _in_unit(resp.detector_f3db, 1e9),
                "scope_cutoff_ghz": _in_unit(resp.scope_cutoff, 1e9),
                "filter_order": resp.filter_order,
            },
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
            stages = []
            for st in stages_raw:
                params = {k: v for k, v in st.items() if k != "kind"}
                stages.append(ChannelSpec(st["kind"], params))
            chain = ChainModel(stages=tuple(stages),
                               **_fields(chain_raw, lo_phase_rad=("lo_phase", float)))
            acquisition = AcquisitionConfig(**_fields(
                _section(raw, "acquisition"),
                record_duration_ns=("record_duration", lambda v: float(v) * 1e-9),
                samples_per_frame=("samples_per_frame", int),
                frames=("frames", int),
                photocurrent_ma=("photocurrent", lambda v: float(v) * 1e-3),
                clearance_at_43ghz_db=("clearance_at_43ghz_db",
                                       lambda v: None if v is None else float(v))))
            response = FrequencyResponse(**_fields(
                _section(raw, "response"),
                detector_f3db_ghz=("detector_f3db", lambda v: float(v) * 1e9),
                scope_cutoff_ghz=("scope_cutoff", lambda v: float(v) * 1e9),
                filter_order=("filter_order", int)))
            analysis = AnalysisOptions(**_section(raw, "analysis"))
            return cls(chain=chain, acquisition=acquisition, response=response,
                       analysis=analysis, **_fields(raw, seed=("seed", int)))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"invalid configuration: {err}") from err

    def dump(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return cls.from_dict(raw)
