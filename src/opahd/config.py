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
            chain_raw = raw.get("chain", {})
            stages = []
            for st in chain_raw.get("stages", []):
                params = {k: v for k, v in st.items() if k != "kind"}
                stages.append(ChannelSpec(st["kind"], params))
            chain = ChainModel(stages=tuple(stages),
                               lo_phase=float(chain_raw.get("lo_phase_rad", 0.0)))
            acq_raw = raw.get("acquisition", {})
            acq_defaults = AcquisitionConfig()
            clearance = acq_raw.get(
                "clearance_at_43ghz_db", acq_defaults.clearance_at_43ghz_db)
            acquisition = AcquisitionConfig(
                record_duration=float(acq_raw.get("record_duration_ns", 78.2)) * 1e-9,
                samples_per_frame=int(acq_raw.get("samples_per_frame", 12512)),
                frames=int(acq_raw.get("frames", 8192)),
                photocurrent=float(acq_raw.get("photocurrent_ma", 3.0)) * 1e-3,
                clearance_at_43ghz_db=None if clearance is None else float(clearance),
            )
            resp_raw = raw.get("response", {})
            response = FrequencyResponse(
                detector_f3db=float(resp_raw.get("detector_f3db_ghz", 43.0)) * 1e9,
                scope_cutoff=float(resp_raw.get("scope_cutoff_ghz", 63.0)) * 1e9,
                filter_order=int(resp_raw.get("filter_order", 4)),
            )
            analysis = AnalysisOptions(**raw.get("analysis", {}))
            return cls(chain=chain, acquisition=acquisition, response=response,
                       analysis=analysis, seed=int(raw.get("seed", 0)))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"invalid configuration: {err}") from err

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return cls.from_dict(raw)
