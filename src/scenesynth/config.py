"""The config of a generation run and its syntax: read it, check it,
write it back.

Config syntax is one line per config key, `key = value` or `key: value`
(as the manifest writes it); blank and `#` lines are skipped, unknown and
repeated keys are refused, and numbers are finite. Each config key is an
init field of `GenerationConfig`, in field order, with its default and
its `ValueType`. `GenerationConfig.from_lines` reads lines of this
syntax, `parse_run_config` reads a config file through it, and
`GenerationConfig.echo` writes each key back: the manifest's config
block (module `manifest`), which reads back as the same config. The
worker count is a run detail that no output file records.

A config is checked as it is made. The planner's action set and cost
weights and the smoothing weights are the defaults of `PlannerParams`
and `RefinementParams`; a config sets only the planner step `dt` and the
horizon `t_g`. Every plan of a run has the config's `dt` and
`n_steps + 1` states, so one smoothing system, which depends only on
`dt` and `t_g`, refines them all: `GenerationConfig` checks that the
horizon fills a scene of `refine.SCENE_SAMPLES` samples, builds the
system's gain and refines a probe plan (`refinement_shape`) with its
other value checks. A faulty value is a ConfigError, which `from_lines`
gives the line of a key that its message names.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, NamedTuple

from .errors import ConfigError, RefinementError
from .maps import read_lines
from .planner import PlannerParams
from .refine import SCENE_SAMPLES, RefinementParams, fine_steps_per, refinement_shape


class ValueType(NamedTuple):
    """How one config value reads from and writes back to config syntax."""

    noun: str
    parse: Callable[[str], object]
    format: Callable[[object], str]


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_finite(text: str) -> float:
    """The number of every number key: nan and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


INT = ValueType("an integer", int, str)
FLOAT = ValueType("a finite number", _parse_finite, repr)
TEXT = ValueType("text", str, str)
PATHS = ValueType("comma-separated paths", lambda text: tuple(_parse_list(text)), ",".join)

_CONFIG_LINE = re.compile(r"([^=:]+)[=:](.*)")


def _key(default, vtype: ValueType):
    """A GenerationConfig field that is a config key of value type `vtype`."""
    return field(default=default, metadata={"type": vtype})


@dataclass(frozen=True)
class GenerationConfig:
    """A run's config. Each init field is one config key, in manifest
    order, with its default and its `ValueType` (field metadata "type");
    `dt` and `t_g` default to those of `PlannerParams`. `__post_init__`
    builds `planner`, a `PlannerParams` of the config's `dt` and `t_g`,
    and `refinement`, the default `RefinementParams`, once per config,
    and their smoothing system must refine a plan (`refinement_shape`). A
    value check names the keys at fault in its message."""

    seed: int = _key(0, INT)
    n_scenes: int = _key(10, INT)
    output_dir: str = _key("out/scenes", TEXT)
    augmented_fraction: float = _key(165.0 / 370.0, FLOAT)
    dt: float = _key(PlannerParams.dt, FLOAT)
    t_g: float = _key(PlannerParams.t_g, FLOAT)
    path_min_length: float = _key(150.0, FLOAT)
    map_files: tuple[str, ...] = _key((), PATHS)
    planner: PlannerParams = field(init=False, repr=False, compare=False)
    refinement: RefinementParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "planner", PlannerParams(dt=self.dt, t_g=self.t_g))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "refinement", RefinementParams())
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_scenes < 1:
            raise ConfigError(f"n_scenes must be >= 1, got {self.n_scenes}")
        if not 0.0 <= self.augmented_fraction <= 1.0:
            raise ConfigError(
                f"augmented_fraction must lie in [0, 1], got {self.augmented_fraction}"
            )
        if self.path_min_length <= 0:
            raise ConfigError(f"path_min_length must be positive, got {self.path_min_length}")
        try:
            k = fine_steps_per(self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        n_knots = self.planner.n_steps - 1
        if n_knots * k + 1 < SCENE_SAMPLES:
            raise ConfigError(
                "planner horizon too short for a full 50-sample scene: "
                f"t_g={self.t_g} at dt={self.dt}"
            )
        try:
            refinement_shape(self.refinement, self.dt, self.planner.n_steps + 1)
        except RefinementError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_lines(cls, lines: Iterable[tuple[int, str]], where) -> GenerationConfig:
        """The config that (file line, text) `lines` set, each key at most
        once, by `key = value` or `key: value`; blank and `#` lines are
        skipped, and unset keys keep their defaults. Raises ConfigError,
        naming `where` and the line for a faulty line, and for a faulty
        value the line of the first key at fault that `lines` set."""
        types = {f.name: f.metadata["type"] for f in fields(cls) if f.init}
        values: dict[str, object] = {}
        set_at: dict[str, int] = {}  # line of each key set
        for lineno, raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            match = _CONFIG_LINE.fullmatch(line)
            if not match:
                raise ConfigError(f"expected 'key = value': {line!r}", where, lineno)
            key, text = match[1].strip(), match[2].strip()
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}", where, lineno)
            if key in set_at:
                raise ConfigError(f"{key} is already set on line {set_at[key]}", where, lineno)
            set_at[key] = lineno
            try:
                values[key] = types[key].parse(text)
            except ValueError as exc:
                msg = f"{key}: expected {types[key].noun}, got {text!r}"
                raise ConfigError(msg, where, lineno) from exc
        try:
            return cls(**values)
        except ConfigError as exc:
            named = [word for word in re.findall(r"\w+", str(exc)) if word in set_at]
            if not named:
                raise
            raise ConfigError(str(exc), where, set_at[named[0]]) from None

    def echo(self) -> list[tuple[str, str]]:
        """(key, value) in config syntax for each config key, for the
        manifest; as `key: value` lines they read back through `from_lines`."""
        return [
            (f.name, f.metadata["type"].format(getattr(self, f.name)))
            for f in fields(self) if f.init
        ]


def parse_run_config(path) -> GenerationConfig:
    try:
        lines = read_lines(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return GenerationConfig.from_lines(enumerate(lines, start=1), path)
