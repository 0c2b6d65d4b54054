"""Plain-text run configuration: INI-style sections of key = value pairs."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields, is_dataclass, replace

from .baselines import CompositeConfig
from .couloss import CouLossConfig
from .errors import ConfigError
from .simulator import SimConfig

_MAP_KINDS = ("bump", "indicator", "flat", "file")


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0.0


def _check(cfg, keys, ok, rule: str) -> None:
    """Reject the first of ``keys`` whose value in ``cfg`` fails ``ok``."""
    for key in keys:
        value = getattr(cfg, key)
        if not ok(value):
            raise ConfigError(f"{key} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class AnchorDemoConfig:
    stride: float = 2.0
    scales: tuple[float, ...] = (40.0,)
    ratios: tuple[float, ...] = (0.41,)
    map_kind: str = "bump"  # one of _MAP_KINDS
    map_file: str = ""
    scene_file: str = ""
    flat_value: float = 0.5
    peak: float = 0.9
    background: float = 0.08
    negative_iou_threshold: float = 0.3

    def __post_init__(self):
        _check(self, ("stride",), _positive, "finite and > 0")
        _check(
            self, ("scales", "ratios"), lambda v: v and all(map(_positive, v)), "non-empty, each finite and > 0"
        )
        _check(self, ("map_kind",), _MAP_KINDS.__contains__, f"one of {', '.join(_MAP_KINDS)}")


@dataclass(frozen=True)
class GradCheckConfig:
    num_scenes: int = 1000
    tolerance: float = 1e-4
    fd_step_fraction: float = 1e-5
    kink_tolerance: float = 1e-3
    max_perturb_retries: int = 20

    def __post_init__(self):
        _check(self, ("tolerance", "fd_step_fraction"), _positive, "finite and > 0")
        _check(self, ("kink_tolerance",), lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")
        _check(self, ("num_scenes", "max_perturb_retries"), lambda v: v >= 1, ">= 1")


@dataclass(frozen=True)
class NmsSweepConfig:
    threshold_min: float = 0.3
    threshold_max: float = 0.8
    threshold_step: float = 0.05
    match_iou: float = 0.5
    variants: tuple[str, ...] = ("baseline", "couloss")

    def __post_init__(self):
        lo, hi = self.threshold_min, self.threshold_max
        _check(self, ("threshold_step",), _positive, "finite and > 0")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"need finite threshold_min <= threshold_max, got {lo!r} and {hi!r}")
        first, last = self._threshold(0), self._threshold(self._count() - 1)
        if not (0.0 < first and last < 1.0):
            raise ConfigError(f"NMS thresholds must lie in (0, 1), got {first!r} to {last!r}")
        if not self.variants:
            raise ConfigError("variants must not be empty")
        _check(self, ("match_iou",), lambda v: 0.0 < v <= 1.0, "in (0, 1]")

    def _count(self) -> int:
        return int(round((self.threshold_max - self.threshold_min) / self.threshold_step)) + 1

    def _threshold(self, k: int) -> float:
        return round(self.threshold_min + k * self.threshold_step, 10)

    def thresholds(self) -> tuple[float, ...]:
        return tuple(self._threshold(k) for k in range(self._count()))


@dataclass(frozen=True)
class EvalConfig:
    detections: str = ""
    scenes_dir: str = ""
    match_iou: float = 0.5
    target_miss_rate: float = 0.1
    min_height: float = 0.0
    max_height: float = math.inf
    min_visibility: float = 0.0
    max_visibility: float = 1.0

    def __post_init__(self):
        _check(self, ("match_iou",), lambda v: 0.0 < v <= 1.0, "in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig = SimConfig()
    couloss: CouLossConfig = CouLossConfig()
    composite: CompositeConfig = CompositeConfig()
    anchors: AnchorDemoConfig = AnchorDemoConfig()
    gradcheck: GradCheckConfig = GradCheckConfig()
    nms: NmsSweepConfig = NmsSweepConfig()
    eval: EvalConfig = EvalConfig()
    seeds: tuple[int, ...] = tuple(range(20))
    out_dir: str = "."
    variants: tuple[str, ...] = ("baseline", "couloss", "only_att", "only_rep")


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(raw: str, default, key: str):
    raw = raw.strip()
    if isinstance(default, bool):
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc
    if isinstance(default, float):
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
        if not math.isfinite(value) and value != default:  # inf only where it is the default
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return value
    if isinstance(default, tuple):
        parts = [p for p in (s.strip() for s in raw.split(",")) if p]
        elem = default[0] if default else 0.0
        return tuple(_coerce(p, elem, key) for p in parts)
    return raw


def _fill_section(instance, section: dict, section_name: str):
    valid = {f.name for f in fields(instance)}
    kwargs = {}
    for key, raw in section.items():
        if key not in valid:
            raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
        kwargs[key] = _coerce(raw, getattr(instance, key), f"[{section_name}] {key}")
    try:
        return replace(instance, **kwargs)
    except Exception as exc:
        raise ConfigError(f"invalid values in section [{section_name}]: {exc}") from exc


def load_run_config(path: str | None = None) -> RunConfig:
    """Parse a config file into a :class:`RunConfig`; defaults with no path.

    Unknown sections or keys are rejected.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc

    # each section fills the config-dataclass field of its name
    sections = {f.name: f.default for f in fields(RunConfig) if is_dataclass(f.default)}
    updates = {}
    for section_name in parser.sections():
        if section_name == "run":
            for key, raw in parser.items("run"):
                if key == "seeds":
                    updates["seeds"] = _coerce(raw, (0,), "[run] seeds")
                elif key == "out":
                    updates["out_dir"] = raw.strip()
                elif key == "variants":
                    updates["variants"] = _coerce(raw, ("baseline",), "[run] variants")
                else:
                    raise ConfigError(f"unknown key {key!r} in section [run]")
            continue
        if section_name not in sections:
            raise ConfigError(f"unknown config section [{section_name}]")
        section = dict(parser.items(section_name))
        updates[section_name] = _fill_section(sections[section_name], section, section_name)
    if not updates.get("seeds", (0,)):
        raise ConfigError("[run] seeds must not be empty")
    if not updates.get("variants", ("baseline",)):
        raise ConfigError("[run] variants must not be empty")
    return replace(cfg, **updates)
