"""Plain-text run configuration: INI-style sections of key = value pairs."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

from .anchors import AnchorDemoConfig
from .baselines import CompositeConfig
from .couloss import CouLossConfig
from .errors import ConfigError, check, freeze, open_text
from .evalkit import EvalConfig
from .gradcheck import GradCheckConfig
from .simulator import VARIANT_LIST, NmsSweepConfig, SimConfig, standard_variants

# the rules of the [run] keys that a flag of the same name overrides: --seeds and --out
_RUN_FLAGS = {"seeds": (lambda v: bool(v) and min(v) >= 0, "non-empty, each >= 0"), "out": (bool, "non-empty")}


@dataclass(frozen=True)
class RunSection:
    seeds: tuple[int, ...] = tuple(range(20))
    out: str = "."
    variants: tuple[str, ...] = tuple(standard_variants())

    def __post_init__(self):
        freeze(self, "seeds", "variants")
        for key, rule in _RUN_FLAGS.items():
            check(self, (key,), *rule)
        check(self, ("variants",), *VARIANT_LIST)


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


def _fill_section(instance, section, section_name: str):
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
    if path is None:
        return RunConfig()
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
        updates[section_name] = _fill_section(sections[section_name], parser[section_name], section_name)
    return RunConfig(**updates)
