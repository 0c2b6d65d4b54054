"""Plain-text run configuration: INI-style sections of key = value pairs."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

from .anchors import _SIZES, _STRIDE
from .baselines import CompositeConfig
from .couloss import CouLossConfig
from .errors import ConfigError, check, freeze, non_negative, open_text, positive
from .evalkit import _MATCH_IOU, _NMS_THRESHOLD, SubsetFilter
from .simulator import DEFAULT_NMS_THRESHOLDS, SimConfig, standard_variants

_MAP_KINDS = ("bump", "indicator", "flat", "file")
_VARIANTS = tuple(standard_variants())
# the rule for a variant list, in [run] and [nms]
_VARIANT_LIST = (lambda v: 0 < len(set(v) & set(_VARIANTS)) == len(v),
                 f"non-empty, each one of {', '.join(_VARIANTS)} at most once")
# the rules of the [run] keys that a flag of the same name overrides: --seeds and --out
_RUN_FLAGS = {"seeds": (lambda v: bool(v) and min(v) >= 0, "non-empty, each >= 0"), "out": (bool, "non-empty")}


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
        freeze(self, "scales", "ratios")
        check(self, ("stride",), *_STRIDE)
        check(self, ("scales", "ratios"), *_SIZES)
        check(self, ("map_kind",), _MAP_KINDS.__contains__, f"one of {', '.join(_MAP_KINDS)}")
        check(self, ("map_file",), lambda v: bool(v) == (self.map_kind == "file"), "set exactly when map_kind is file")
        check(self, ("flat_value", "peak", "background"), lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        check(self, ("negative_iou_threshold",), *_MATCH_IOU)


@dataclass(frozen=True)
class GradCheckConfig:
    num_scenes: int = 1000
    tolerance: float = 1e-4
    fd_step_fraction: float = 1e-5
    kink_tolerance: float = 1e-3
    max_perturb_retries: int = 20

    def __post_init__(self):
        check(self, ("tolerance", "fd_step_fraction"), positive, "finite and > 0")
        check(self, ("kink_tolerance",), non_negative, "finite and >= 0")
        check(self, ("num_scenes", "max_perturb_retries"), lambda v: v >= 1, ">= 1")


@dataclass(frozen=True)
class NmsSweepConfig:
    thresholds: tuple[float, ...] = DEFAULT_NMS_THRESHOLDS  # swept in this order
    match_iou: float = 0.5
    variants: tuple[str, ...] = _VARIANTS[:2]  # the baseline and the full CouLoss

    def __post_init__(self):
        freeze(self, "thresholds", "variants")
        ok, rule = _NMS_THRESHOLD
        check(self, ("thresholds",), lambda v: bool(v) and all(map(ok, v)), f"non-empty, each {rule}")
        check(self, ("variants",), *_VARIANT_LIST)
        check(self, ("match_iou",), *_MATCH_IOU)


@dataclass(frozen=True)
class EvalConfig(SubsetFilter):
    detections: str = ""
    scenes_dir: str = ""
    match_iou: float = 0.5
    target_miss_rate: float = 0.1

    def __post_init__(self):
        check(self, ("match_iou",), *_MATCH_IOU)
        check(self, ("target_miss_rate",), lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        super().__post_init__()


@dataclass(frozen=True)
class RunSection:
    seeds: tuple[int, ...] = tuple(range(20))
    out: str = "."
    variants: tuple[str, ...] = _VARIANTS

    def __post_init__(self):
        freeze(self, "seeds", "variants")
        for key, rule in _RUN_FLAGS.items():
            check(self, (key,), *rule)
        check(self, ("variants",), *_VARIANT_LIST)


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig = SimConfig()
    couloss: CouLossConfig = CouLossConfig()
    composite: CompositeConfig = CompositeConfig()
    anchors: AnchorDemoConfig = AnchorDemoConfig()
    gradcheck: GradCheckConfig = GradCheckConfig()
    nms: NmsSweepConfig = NmsSweepConfig()
    eval: EvalConfig = EvalConfig()
    run: RunSection = RunSection()


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(raw: str, default, key: str):
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() not in _TRUE | _FALSE:
            raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
        return raw.lower() in _TRUE
    if isinstance(default, (int, float)):
        kind, name = (int, "an integer") if isinstance(default, int) else (float, "a number")
        try:
            value = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected {name}, got {raw!r}") from exc
        if kind is float and not math.isfinite(value) and value != default:  # inf only where it is the default
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return value
    if isinstance(default, tuple):
        elem = default[0] if default else 0.0
        return tuple(_coerce(p, elem, key) for p in raw.split(",")) if raw else ()
    return raw


def with_flags(run: RunSection, seeds: str | None, out: str | None) -> RunSection:
    """``run`` with the ``--seeds`` and ``--out`` that are given, each under its
    ``[run]`` key's rule; errors name the flag."""
    flags = {"seeds": None if seeds is None else _coerce(seeds, (0,), "--seeds"), "out": out}
    flags = {key: value for key, value in flags.items() if value is not None}
    for key, value in flags.items():
        check(SimpleNamespace(**{f"--{key}": value}), (f"--{key}",), *_RUN_FLAGS[key])
    return replace(run, **flags)


def _fill_section(instance, section: dict, section_name: str):
    valid = {f.name for f in fields(instance)}
    kwargs = {}
    for key, raw in section.items():
        if key not in valid:
            raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
        kwargs[key] = _coerce(raw, getattr(instance, key), f"[{section_name}] {key}")
    try:
        return replace(instance, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid values in section [{section_name}]: {exc}") from exc


def _parse_error(path, exc: configparser.Error) -> str:
    """One line ``path:line: what`` for a file that configparser cannot read."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"{path}:{exc.lineno}: expected a [section] header, got {exc.line.strip()!r}"
    if isinstance(exc, configparser.ParsingError):
        return f"{path}:{exc.errors[0][0]}: expected 'key = value', a [section] header or a comment"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"{path}:{exc.lineno}: section [{exc.section}] repeated"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"{path}:{exc.lineno}: key {exc.option!r} repeated in section [{exc.section}]"
    return f"could not parse {path}: {exc}"


def load_run_config(path: str | None = None) -> RunConfig:
    """Parse a config file into a :class:`RunConfig`; defaults with no path.

    Unknown sections or keys, and any key under ``[DEFAULT]``, are rejected.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open_text(path) as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(_parse_error(path, exc)) from exc
    for key in parser.defaults():
        raise ConfigError(f"unknown key {key!r} in section [DEFAULT]")

    # each section fills the section record of its name
    sections = {f.name: f.default for f in fields(RunConfig)}
    updates = {}
    for section_name in parser.sections():
        if section_name not in sections:
            raise ConfigError(f"unknown config section [{section_name}]")
        section = dict(parser.items(section_name))
        updates[section_name] = _fill_section(sections[section_name], section, section_name)
    return replace(cfg, **updates)
