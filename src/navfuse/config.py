"""Run configuration: a strict YAML-backed dataclass tree."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .backbones import PointBranchConfig, RgbBranchConfig
from .errors import ConfigError
from .optim import TrainConfig
from .pipeline import PipelineConfig
from .simulate import SCENARIOS, CameraConfig, LidarConfig


@dataclass
class DataConfig:
    root: str = ""
    lookahead_m: float = 5.0
    augment: bool = True
    na_threshold: float = 0.5

    def validate(self):
        if self.lookahead_m <= 0 or self.na_threshold <= 0:
            raise ConfigError("data.lookahead_m and data.na_threshold must be > 0")
        return self


@dataclass
class SynthConfig:
    scenarios: list[str] = field(default_factory=lambda: list(SCENARIOS))
    frames: int = 50
    width: int = 64
    height: int = 64
    focal: float = 64.0
    n_azimuth: int = 64
    n_elevation: int = 16
    speed: float = 0.5
    yaw_rate_deg: float = 0.5

    def camera(self) -> CameraConfig:
        return CameraConfig(width=self.width, height=self.height, focal=self.focal)

    def lidar(self) -> LidarConfig:
        return LidarConfig(n_azimuth=self.n_azimuth, n_elevation=self.n_elevation)

    def validate(self):
        # the last pose has no label, so one frame gives an empty sequence
        if self.frames < 2:
            raise ConfigError("synth.frames must be >= 2")
        for s in self.scenarios:
            if s not in SCENARIOS:
                raise ConfigError(f"unknown scenario {s!r}")
        self.camera().validate()
        self.lidar().validate()
        return self


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    data: DataConfig = field(default_factory=DataConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.data.validate()
        self.pipeline.validate()
        self.train.validate()
        self.synth.validate()
        return self


def _from_dict(cls, data: dict, path: str = ""):
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping at {path or 'config root'}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config key(s) at {path or 'root'}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        f = fields[name]
        sub = f"{path}.{name}" if path else name
        # every config module uses postponed annotations: f.type is a string
        if f.type in _NESTED:
            kwargs[name] = _from_dict(_NESTED[f.type], value, sub)
        else:
            kwargs[name] = _checked(value, f.type, sub)
    return cls(**kwargs)


_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _is_a(value, type_name: str) -> bool:
    # bool subclasses int, but `true` is no count or size, nor `.nan` a float
    return (isinstance(value, _SCALAR_TYPES[type_name])
            and (type_name == "bool" or not isinstance(value, bool))
            and (type_name != "float" or bool(np.isfinite(value))))


def _checked(value, type_name: str, path: str):
    """value itself if it has the field's declared type (an int passes as a
    float, a non-finite float does not); ConfigError otherwise."""
    if type_name.startswith("list["):
        ok = isinstance(value, list) and all(_is_a(v, type_name[5:-1]) for v in value)
    else:
        ok = _is_a(value, type_name)
    if not ok:
        raise ConfigError(f"{path}: expected {type_name}, got {value!r}")
    return value


_NESTED = {
    "DataConfig": DataConfig,
    "SynthConfig": SynthConfig,
    "PipelineConfig": PipelineConfig,
    "TrainConfig": TrainConfig,
    "RgbBranchConfig": RgbBranchConfig,
    "PointBranchConfig": PointBranchConfig,
}


def _to_plain(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    return obj


def config_to_dict(cfg: RunConfig) -> dict:
    return _to_plain(cfg)


def config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data).validate()


def load_config(text: str) -> RunConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed config: {e}") from None
    if data is None:
        data = {}
    return config_from_dict(data)
