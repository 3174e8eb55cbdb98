"""Experiment configuration: a single YAML file describing one run.

The file is the unit of reproducibility: everything a run needs (grid,
coefficients, initial condition, stepping, which checks to evaluate, output
paths) lives in it, and unknown keys are rejected so committed fixtures
cannot drift silently. `LAYOUT` maps the YAML sections to the config's
fields.
"""
from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass, replace
import math
import os
import typing

import numpy as np
import yaml

from .model import (CoefficientSet, SimState, random_smooth_state,
                    reduce_mean)
from .spectral import SpectralField, from_samples, make_grid

PRESETS = ("single-mode", "random-smooth", "two-soliton-like")

DEFAULT_CHECKS = ("L2", "GEN_N", "H1", "H2", "POINCARE", "PRODUCT_BOUND",
                  "DECAY")
MAX_N_POINTS = 65536  # a larger grid is refused, not left to fail in numpy


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class InitialSpec:
    """Named initial-condition family plus its parameters.

    `seed` and `kmax` only matter for the random-smooth preset but are kept
    (with defaults) for every preset so specs round-trip as plain mappings.
    Means are carried separately from the zero-mean evolving fields.
    """

    preset: str = "single-mode"
    amplitude: float = 0.1
    seed: int = 0
    kmax: int = 8
    mean_u: float = 0.0
    mean_v: float = 0.0


@dataclass(frozen=True)
class VerifySpec:
    """Sizes and seeds for the `gg verify` battery."""

    n_states: int = 20
    amplitude: float = 0.1
    seed: int = 0
    kmax: int = 8
    poincare_fields: int = 100
    product_fields: int = 50


@dataclass(frozen=True)
class ExperimentConfig:
    n_points: int = 256
    coefficients: CoefficientSet = field(
        default_factory=lambda: CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=1.0))
    initial: InitialSpec = field(default_factory=InitialSpec)
    dt: float | None = None  # None -> integrator default_dt rule
    t_final: float = 10.0
    stride: int = 1
    n_max: int = 4
    fit_window: tuple[float, float] | None = None  # None -> trailing half
    checks: tuple[str, ...] = DEFAULT_CHECKS
    csv_path: str | None = None
    summary_path: str | None = None
    plot_path: str | None = None
    verify: VerifySpec = field(default_factory=VerifySpec)

    def resolved_fit_window(self) -> tuple:
        if self.fit_window is not None:
            return self.fit_window
        return (self.t_final / 2.0, self.t_final)


def _require_keys(mapping: dict, allowed, where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return value


def _as_float(value, where: str) -> float:
    """A finite float from an int, a float or numeric text (PyYAML reads
    `1e-6` as a string); bools, NaN and infinities are rejected."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            out = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(out):
                return out
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _as_int(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _as_float(value, where)
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


_SCALARS = {float: _as_float, int: _as_int, str: _as_str}


def _check_value(value, hint, where: str):
    """`value` checked against a dataclass field's type hint: float, int,
    str, a homogeneous tuple of one of these, or any of them `| None`."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint = args[0]
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_check_value(item, args[0], where) for item in value)
    return _SCALARS[hint](value, where)


def _build(default, mapping: dict, where: str):
    """`default` with the keys of `mapping` replaced, each checked against
    the type of the dataclass field it names."""
    hints = typing.get_type_hints(type(default))
    _require_keys(mapping, hints, where)
    return replace(default, **{key: _check_value(value, hints[key],
                                                 f"{where}.{key}")
                               for key, value in mapping.items()})


# The YAML layout, written once: each section with {key: ExperimentConfig
# field}, or None where the section is the field of the same name (a
# dataclass section such as `coefficients`, or the `checks` list).
LAYOUT = (
    ("grid", {"n_points": "n_points"}),
    ("coefficients", None),
    ("initial", None),
    ("run", {"dt": "dt", "t_final": "t_final", "stride": "stride",
             "n_max": "n_max", "fit_window": "fit_window"}),
    ("checks", None),
    ("output", {"csv": "csv_path", "summary": "summary_path",
                "plot": "plot_path"}),
    ("verify", None),
)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _require_keys(raw, [name for name, _ in LAYOUT], "config root")
    default = ExperimentConfig()
    hints = typing.get_type_hints(ExperimentConfig)
    values = {}
    for name, keys in LAYOUT:
        if keys is not None:
            section = _section(raw, name)
            _require_keys(section, keys, name)
            values.update({keys[key]: _check_value(value, hints[keys[key]],
                                                   f"{name}.{key}")
                           for key, value in section.items()})
        elif is_dataclass(getattr(default, name)):
            values[name] = _build(getattr(default, name),
                                  _section(raw, name), name)
        elif name in raw:
            values[name] = _check_value(raw[name], hints[name], name)
    cfg = replace(default, **values)
    _check_ranges(cfg)
    return cfg


def _check_ranges(cfg: ExperimentConfig) -> None:
    def require(ok: bool, message: str) -> None:
        if not ok:
            raise ConfigError(message)

    require(8 <= cfg.n_points <= MAX_N_POINTS and cfg.n_points % 2 == 0,
            f"grid.n_points must be an even integer in [8, {MAX_N_POINTS}], "
            f"got {cfg.n_points}")
    require(cfg.initial.preset in PRESETS,
            f"unknown preset {cfg.initial.preset!r}; choose from {PRESETS}")
    require(cfg.dt is None or cfg.dt > 0.0,
            f"run.dt must be positive, got {cfg.dt}")
    require(cfg.t_final > 0.0,
            f"run.t_final must be positive, got {cfg.t_final}")
    require(cfg.stride >= 1, f"run.stride must be >= 1, got {cfg.stride}")
    require(0 <= cfg.n_max <= 8,
            f"run.n_max must be in [0, 8], got {cfg.n_max}")
    window = cfg.fit_window
    require(window is None or (len(window) == 2 and window[0] < window[1]),
            f"run.fit_window must be [t0, t1] with t0 < t1, got {window}")
    unknown = sorted(set(cfg.checks) - set(DEFAULT_CHECKS))
    require(not unknown, f"unknown checks {unknown}; "
                         f"allowed: {sorted(DEFAULT_CHECKS)}")
    if cfg.dt is not None:
        # the integrator's own test, checked here so every command exits 2
        ratio = cfg.t_final / cfg.dt
        n_steps = round(ratio) if math.isfinite(ratio) else 0
        require(n_steps >= 1
                and abs(n_steps * cfg.dt - cfg.t_final)
                <= 1e-9 * max(1.0, cfg.t_final)
                and n_steps % cfg.stride == 0,
                f"run.dt = {cfg.dt} does not divide run.t_final = "
                f"{cfg.t_final} into whole strides (run.stride = {cfg.stride})")
    for where, spec in (("initial", cfg.initial), ("verify", cfg.verify)):
        require(spec.kmax >= 1, f"{where}.kmax must be >= 1, got {spec.kmax}")
        require(spec.seed >= 0, f"{where}.seed must be >= 0, got {spec.seed}")
    named = {}  # each output file -> the first key that names it
    for key, path in (("csv", cfg.csv_path), ("summary", cfg.summary_path),
                      ("plot", cfg.plot_path)):
        if path is not None:
            first = named.setdefault(os.path.abspath(path), key)
            require(first == key, f"output.{first} and output.{key} name "
                                  f"one file, {path}; give each its own path")
    vs = cfg.verify
    require(vs.n_states >= 1,
            f"verify.n_states must be >= 1, got {vs.n_states}")
    require(vs.poincare_fields >= 0 and vs.product_fields >= 0,
            "verify.poincare_fields and verify.product_fields must be >= 0, "
            f"got {vs.poincare_fields} and {vs.product_fields}")


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a mapping key given twice, at any depth;
    a merge key (<<) may still override what it merges."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list: an unhashable key is left to SafeLoader's error
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.append(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from None
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def atomic_write_text(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    # O_EXCL: the name is this call's own; 0o666 less the umask, as open()
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _periodized_sech2(x: np.ndarray, center: float, width: float
                      ) -> np.ndarray:
    """sech^2 bump wrapped onto the unit circle (three nearest images)."""
    out = np.zeros_like(x)
    for image in (-1.0, 0.0, 1.0):
        out += 1.0 / np.cosh((x - center + image) / width) ** 2
    return out


def build_initial_state(cfg: ExperimentConfig) -> SimState:
    grid = make_grid(cfg.n_points)
    spec = cfg.initial

    def exactly_zero_mean(samples):
        # These presets have analytic mean zero; the sampled FFT mean is pure
        # round-off and would register as spurious drift at large amplitudes.
        coeffs = from_samples(grid, samples).coeffs.copy()
        coeffs[0] = 0.0
        return SpectralField(grid, coeffs)

    x = grid.nodes()
    if spec.preset == "single-mode":
        u = exactly_zero_mean(spec.amplitude * np.sin(2.0 * np.pi * x))
        v = exactly_zero_mean(spec.amplitude * np.cos(2.0 * np.pi * x))
        state = SimState(u=u, v=v, t=0.0, mean_u=0.0, mean_v=0.0)
    elif spec.preset == "random-smooth":
        state = random_smooth_state(grid, seed=spec.seed,
                                    amplitude=spec.amplitude, kmax=spec.kmax)
    else:  # two-soliton-like
        u = spec.amplitude * _periodized_sech2(x, 0.35, 0.06)
        v = 0.6 * spec.amplitude * _periodized_sech2(x, 0.65, 0.08)
        state = reduce_mean(from_samples(grid, u), from_samples(grid, v))
    if spec.mean_u or spec.mean_v:
        state = SimState(u=state.u, v=state.v, t=state.t,
                         mean_u=state.mean_u + spec.mean_u,
                         mean_v=state.mean_v + spec.mean_v)
    return state


SWEEP_AXES = {"a1": "coefficients", "a2": "coefficients",
              "a3": "coefficients", "k": "coefficients",
              "amplitude": "initial"}


def apply_overrides(cfg: ExperimentConfig, point: dict) -> ExperimentConfig:
    """New config with sweep-axis values substituted (k, a3, amplitude)."""
    for name, value in point.items():
        if name not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {name!r}; "
                              f"allowed: {', '.join(SWEEP_AXES)}")
        section = SWEEP_AXES[name]
        value = _as_float(value, f"sweep axis {name}")
        cfg = replace(cfg, **{section: replace(getattr(cfg, section),
                                               **{name: value})})
    return cfg
