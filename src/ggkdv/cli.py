"""Batch front-end: configure, run, verify, and sweep experiments.

Commands (console script ``gg``):

  gg run <config>      march the configured run, writing a diagnostics CSV,
                       a summary JSON, and optionally an SVG energy plot
  gg verify <config>   evaluate the identity/inequality battery on seeded
                       states plus a decay fit, reporting pass/fail per check
  gg sweep <config> --axis k=0.25,0.5,1.0
                       rerun the experiment over a parameter grid, fitting
                       the energy decay rate at every point; points that
                       share a resolved dt march together as one ensemble

All three march through one pipeline, `run_experiment`: a `RunResult` per
point. Each returns its summary's `status`, with the stderr text that explains
any status but ok, and `main` maps the status to the exit code through
`EXIT_CODES`: 0 success, 3 blow-up, 4 verification failure. A bad config or
coefficient set exits 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import numbers
import os
import sys
from typing import NamedTuple

import numpy as np

from .config import (MAX_BATTERY_POINTS, MAX_POINT_STEPS, ConfigError,
                     ExperimentConfig, apply_overrides, atomic_write_text,
                     build_initial_state, load_config)
from .identities import ZERO_MEAN_CHECKS, check_identities
from .integrator import OBSERVE_BLOCK, BlowUpError, DiagnosticSeries, evolve
from .model import (CoefficientError, SimState, ValidatedCoefficients,
                    check_coefficients, random_smooth_field,
                    random_smooth_state, scale_state, validate_coefficients)
from .spectral import make_grid
from .verification import (check_poincare_holder, fit_decay_rate,
                           observe_states, product_bound_violations)

# summary status -> exit code; the schema's `status` enum names the keys
EXIT_CODES = {"ok": 0, "blow_up": 3, "identity_failure": 4,
              "check_failure": 4}
EXIT_CONFIG = 2
BLOW_UP_TEXT = "blow-up: first non-finite state or energy at t = {:.6g}"

EXACT_RESIDUAL_TOL = 1e-8
# An amplitude halving must roughly halve an approximate identity's relative
# residual (cubic dropped terms over a quadratic normalizer), +/- 25%.
APPROX_RATIO_WINDOW = (0.25, 0.75)
POINCARE_EXPONENTS = (1.0, 2.0, 4.0, math.inf)


def _fmt(value) -> str:
    if value is None or isinstance(value, str):
        return value or ""
    return format(float(value), ".17g")


# jsonschema's Draft-7 types: a bool is no number, and 1.0 is an integer
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": numbers.Number, "integer": int}
# Draft-7 keyword -> its test, as jsonschema writes it: NaN passes `minimum`,
# `const` tells True from 1 but not 1.0 from 1. `_check` descends the rest.
_RULES = {
    "type": lambda v, r: any(_is(v, t) for t in ([r] if isinstance(r, str)
                                                 else r)),
    "const": lambda v, r: (isinstance(v, bool), v) == (isinstance(r, bool), r),
    "enum": lambda v, r: any(_RULES["const"](v, each) for each in r),
    "minimum": lambda v, r: not (_is(v, "number") and v < r),
    "exclusiveMinimum": lambda v, r: not (_is(v, "number") and v <= r),
    "minItems": lambda v, r: not isinstance(v, list) or len(v) >= r,
    "maxItems": lambda v, r: not isinstance(v, list) or len(v) <= r,
    "required": lambda v, r: not isinstance(v, dict) or all(k in v for k in r),
    **dict.fromkeys(("$schema", "title", "items", "properties",
                     "additionalProperties"), lambda v, r: True),
}


def _is(value, name: str) -> bool:
    if isinstance(value, bool):
        return name == "boolean"
    return isinstance(value, _TYPES[name]) or (
        name == "integer" and isinstance(value, float) and value.is_integer())


@functools.lru_cache(maxsize=None)
def _summary_schema() -> dict:
    # read on first use: a missing schema is an OSError, not an import error
    with open(os.path.join(os.path.dirname(__file__), "schemas",
                           "summary.schema.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check(value, schema: dict, path: str = "$", root=None) -> None:
    """Raise ValueError naming the path and the keyword where `value` breaks
    `schema`, or naming a keyword that `_RULES` does not implement."""
    root = root or schema
    if schema is False:  # the `additionalProperties` of a closed object
        raise ValueError(f"summary {path} fails additionalProperties: false")
    if "$ref" in schema:  # a pointer into root; Draft 7 ignores its siblings
        ref = schema["$ref"]
        if not ref.startswith("#/") or "~" in ref:  # an unescaped local one
            raise ValueError(f"unimplemented schema $ref {ref!r} at {path}")
        return _check(value, functools.reduce(
            dict.__getitem__, ref[2:].split("/"), root), path, root)
    for keyword, rule in schema.items():
        if keyword not in _RULES:
            raise ValueError(f"unimplemented schema keyword {keyword} at "
                             f"{path}")
        if not _RULES[keyword](value, rule):
            raise ValueError(f"summary {path} fails {keyword}: {rule!r}")
    for i, item in enumerate(value if isinstance(value, list) else ()):
        _check(item, schema.get("items", {}), f"{path}[{i}]", root)
    for key, item in (value.items() if isinstance(value, dict) else ()):
        _check(item, schema.get("properties", {}).get(
            key, schema.get("additionalProperties", {})), f"{path}.{key}",
            root)


def write_summary(path: str | None, summary: dict) -> None:
    _check(summary, _summary_schema())
    if path is not None:
        atomic_write_text(path, json.dumps(summary, indent=2,
                                           allow_nan=False) + "\n")
        print(f"wrote {path}")


def write_csv(path: str, names: list, columns: dict) -> None:
    rows = zip(*(columns[name] for name in names))
    lines = [",".join(names)] + [",".join(map(_fmt, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")


def render_energy_svg(path: str, t, energy) -> bool:
    """Log10-energy line plot as an SVG document; False if none is drawn."""
    points = [(float(tt), math.log10(float(e)))
              for tt, e in zip(t, energy) if e > 0.0]
    if len(points) < 2:
        return False
    width, height = 640, 400
    left, right, top, bottom = 70, 620, 30, 360
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def px(x):
        return left + (right - left) * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return bottom - (bottom - top) * (y - y_lo) / (y_hi - y_lo)

    poly = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        'stroke="black"/>',
    ]
    for i in range(5):
        x = x_lo + (x_hi - x_lo) * i / 4
        y = y_lo + (y_hi - y_lo) * i / 4
        parts.append(f'<line x1="{px(x):.2f}" y1="{bottom}" '
                     f'x2="{px(x):.2f}" y2="{bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(x):.2f}" y="{bottom + 20}" '
                     f'font-size="12" text-anchor="middle">{x:.3g}</text>')
        parts.append(f'<line x1="{left - 5}" y1="{py(y):.2f}" '
                     f'x2="{left}" y2="{py(y):.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{py(y) + 4:.2f}" '
                     f'font-size="12" text-anchor="end">{y:.3g}</text>')
    parts.append(f'<text x="{(left + right) / 2}" y="{height - 5}" '
                 'font-size="13" text-anchor="middle">t</text>')
    parts.append(f'<text x="15" y="{(top + bottom) / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 15 '
                 f'{(top + bottom) / 2})">log10 energy</text>')
    parts.append(f'<polyline points="{poly}" fill="none" stroke="#1f77b4" '
                 'stroke-width="1.5"/>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
    print(f"wrote {path}")
    return True


def _remove_stale(path: str | None) -> None:
    if path is not None and os.path.exists(path):
        os.remove(path)
        print(f"removed {path}")


def _summary(command: str, status: str, cfg: ExperimentConfig,
             c: ValidatedCoefficients, **rest) -> dict:
    grid = make_grid(cfg.n_points)
    return {"schema_version": 1, "command": command, "status": status,
            "grid": {"n_points": grid.n_points, "n_modes": grid.n_modes,
                     "dealias_cutoff": grid.dealias_cutoff},
            "coefficients": {**c.to_dict(), "branch": c.branch}, **rest}


def _check_summary_owner(cfg: ExperimentConfig, command: str) -> None:
    """Refuse, before anything runs, to replace another command's summary:
    the CSV and plot beside it would be left half replaced or stale."""
    if cfg.summary_path is None:
        return
    try:
        with open(cfg.summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        return  # no file yet, or not JSON
    owner = summary.get("command") if isinstance(summary, dict) else None
    if owner is not None and owner != command:
        raise ConfigError(f"{cfg.summary_path} holds a `gg {owner}` summary; "
                          f"give `gg {command}` its own output paths")


def _fit_dict(fit) -> dict:
    # the schema's `array` type rejects a tuple
    return {**vars(fit), "window": list(fit.window)}


@dataclasses.dataclass(frozen=True)
class RunResult:
    """One march's report; after a blow-up, only its time and why."""

    series: DiagnosticSeries | None  # t, then the functional_record columns
    run: dict | None  # the summary's `run` block; None after a blow-up
    residuals: dict   # tracked identity id -> run-level relative residual
    fits: dict        # quantity id -> DecayFit over the fit window
    fit_errors: dict  # quantity id -> why its fit failed
    blow_up_time: float | None
    no_fit: str | None  # why the energy has no fit; None if it has one


class _Point(NamedTuple):
    """One config, admitted and ready to march."""

    cfg: ExperimentConfig
    c: ValidatedCoefficients
    dt: float
    state: SimState
    identity_ids: list  # exact identities tracked along the trajectory
    skipped: list       # ZERO_MEAN_CHECKS dropped: the initial means are not 0
    columns: tuple | None  # None: the whole record; ("energy",): t, energy


def _prepare(cfg: ExperimentConfig, record: bool) -> _Point:
    """Admit a config: the coefficient gate, then the step, either refusing
    it before anything runs. `record` False observes only t and energy."""
    c, dt = validate_coefficients(cfg.coefficients), cfg.resolved_dt()
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up when run
        state = build_initial_state(cfg)
    checks, skipped = (cfg.checks if record else ()), []
    if state.mean_u != 0.0 or state.mean_v != 0.0:
        skipped = [check for check in ZERO_MEAN_CHECKS if check in checks]
        checks = [check for check in checks if check not in ZERO_MEAN_CHECKS]
    return _Point(cfg, c, dt, state,
                  check_identities(checks, cfg.n_max, c)[0], skipped,
                  None if record else ("energy",))


def run_experiment(points: list) -> list:
    """March each prepared point and fit its decay rates, tracking the exact
    identities of its checks along its march; a point whose `columns` are
    set tracks none and fits only the energy. Points that share grid, span,
    stride and dt march as one ensemble; each gets bitwise the numbers of a
    lone march. Returns the RunResult of each point, in order.
    """
    groups = {}
    for index, p in enumerate(points):
        key = (p.cfg.n_points, p.cfg.t_final, p.cfg.stride, p.dt)
        groups.setdefault(key, []).append(index)
    outcomes = [None] * len(points)
    # Per point and identity, the worst defect and the worst normalizer so
    # far: at isolated degenerate states (e.g. a pure mode at t = 0) both
    # sides of a cross-term identity vanish to round-off, so the
    # instantaneous ratio is 0/0 noise; the run-level residual divides the
    # worst defect by the run's own scale instead. np.maximum, as np.max,
    # carries a NaN through.
    sides = [dict.fromkeys(p.identity_ids, (0.0, 0.0)) for p in points]
    for (_, t_final, stride, dt), members in groups.items():
        group = [points[index] for index in members]

        def observer(i, block):
            p, worst = group[i], sides[members[i]]
            rows, reports = observe_states(block, p.c, p.identity_ids,
                                           p.cfg.n_max, p.columns)
            for key, rep in reports.items():
                defect, norm = worst[key]
                with np.errstate(over="ignore", invalid="ignore"):  # floats
                    worst[key] = (
                        np.maximum(defect, np.max(abs(rep.lhs - rep.rhs))),
                        np.maximum(norm, np.max(rep.normalizer)))
            return rows

        run = evolve([p.state for p in group], [p.c for p in group],
                     t_final, dt, observer=observer, stride=stride)
        for index, out in zip(members, run.members):
            outcomes[index] = _measure(points[index], out, sides[index])
    return outcomes


def _measure(p: _Point, out, sides: dict) -> RunResult:
    """The RunResult of a point's series or BlowUpError: its decay fits are
    of the energy and each seminorm of order 1 and up that the series holds.
    Every normalizer is at least NORMALIZER_FLOOR, or NaN."""
    if not isinstance(out, BlowUpError):
        overflow = np.flatnonzero(~np.isfinite(out["energy"]))
        out = BlowUpError(float(out.t[overflow[0]])) if overflow.size else out
    if isinstance(out, BlowUpError):
        return RunResult(None, None, {}, {}, {}, out.time,
                         f"blow-up at t = {out.time:.6g}")
    fits, fit_errors = {}, {}
    seminorms = [f"seminorm_sq_{n}" for n in range(1, p.cfg.n_max + 1)]
    for name in ["energy"] + [s for s in seminorms if s in out.columns]:
        try:
            fits[name] = fit_decay_rate(out, name,
                                        p.cfg.resolved_fit_window(),
                                        target_rate=-2.0 * p.c.k)
        except ValueError as exc:  # zero data or window too sparse
            fit_errors[name] = str(exc)
    meta = out.meta
    return RunResult(
        out, {"dt": meta["dt"], "t_final": p.cfg.t_final,
              "stride": meta["stride"], "n_steps": meta["n_steps"],
              "n_observations": len(out.t),
              "max_mean_drift": meta["max_mean_drift"]},
        {i: float(d) / float(n) for i, (d, n) in sides.items()},
        fits, fit_errors, None,
        None if "energy" in fits else f"fit failed: {fit_errors['energy']}")


def cmd_run(cfg: ExperimentConfig) -> tuple:
    p = _prepare(cfg, True)
    result = run_experiment([p])[0]
    if result.run is None:
        _remove_stale(cfg.csv_path)
        _remove_stale(cfg.plot_path)
        write_summary(cfg.summary_path, _summary(
            "run", "blow_up", cfg, p.c, run=None, energy=None,
            blow_up_time=result.blow_up_time))
        return "blow_up", BLOW_UP_TEXT.format(result.blow_up_time)
    series = result.series
    if cfg.csv_path is not None:
        write_csv(cfg.csv_path, list(series.columns), series.columns)

    offenders = {i: r for i, r in result.residuals.items()
                 if not r <= EXACT_RESIDUAL_TOL}  # NaN included
    status = "ok" if not offenders else "identity_failure"
    energy_col = series.columns["energy"]
    summary = _summary(
        "run", status, cfg, p.c, run=result.run,
        energy={"initial": float(energy_col[0]),
                "final": float(energy_col[-1])},
        identity_residuals={i: r if math.isfinite(r) else None
                            for i, r in result.residuals.items()},
        decay_fits=[_fit_dict(f) for f in result.fits.values()],
        blow_up_time=None)
    failures = [f"{name}: skipped (identities require zero-mean data)"
                for name in p.skipped]
    failures += [f"{name}: fit failed ({why})"
                 for name, why in result.fit_errors.items()]
    if failures:
        summary["failures"] = failures
    write_summary(cfg.summary_path, summary)
    if (cfg.plot_path is not None
            and not render_energy_svg(cfg.plot_path, series.t, energy_col)):
        _remove_stale(cfg.plot_path)
    return status, "\n".join(
        f"identity failure: {i} relative residual {r:.3e} "
        + (f"> {EXACT_RESIDUAL_TOL}" if math.isfinite(r) else "is not finite")
        for i, r in offenders.items())


def _median(values: list) -> float:
    """The middle of the sorted values, as `statistics.median` takes it."""
    ordered, middle = sorted(values), len(values) // 2
    if len(values) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _blocks(items) -> list:
    return [items[i:i + OBSERVE_BLOCK]
            for i in range(0, len(items), OBSERVE_BLOCK)]


def cmd_verify(cfg: ExperimentConfig) -> tuple:
    c = validate_coefficients(cfg.coefficients)
    grid = make_grid(cfg.n_points)
    vs = cfg.verify
    # the cubic H1, H2 identities are exact only while 2 kmax <= the cutoff
    limit = grid.dealias_cutoff // (1 + bool({"H1", "H2"} & set(cfg.checks)))
    if vs.kmax > limit:
        raise ConfigError(f"verify.kmax = {vs.kmax} > {limit}: dealiasing "
                          f"cutoff {grid.dealias_cutoff} (halved for H1, H2)")
    exact, approx = check_identities(cfg.checks, cfg.n_max, c)
    for key, runs in (("n_states", exact or approx),
                      ("poincare_fields", "POINCARE" in cfg.checks),
                      ("product_fields", "PRODUCT_BOUND" in cfg.checks)):
        count = getattr(vs, key)
        if runs and count * grid.n_points >= MAX_BATTERY_POINTS:
            raise ConfigError(
                f"verify.{key} = {count} on grid.n_points = {grid.n_points} "
                f"takes {count * grid.n_points:.3g} field-points; a battery "
                f"takes fewer than {MAX_BATTERY_POINTS:.0e}")
    # DECAY marches first: its tables may refuse the config, before the battery
    decay = (run_experiment([_prepare(cfg, False)])[0]
             if "DECAY" in cfg.checks else None)

    checks = []

    def add(check_id, passed, value=None, threshold=None, detail=None):
        if value is not None and not math.isfinite(value):
            passed, detail = False, f"{value} is not finite; {detail}"
            value = None
        checks.append({"check_id": check_id, "passed": bool(passed),
                       "value": None if value is None else float(value),
                       "threshold": threshold, "detail": detail})

    # per identity, the relative residual of each seeded state, and of its
    # copy at half the amplitude, a block of states at a time
    full = {i: np.empty(vs.n_states) for i in exact + approx}
    half = {i: np.empty(vs.n_states) for i in approx}
    for block in (_blocks(range(vs.n_states)) if full else ()):
        with np.errstate(over="ignore", invalid="ignore"):  # as floats do
            states = [random_smooth_state(grid, seed=vs.seed + i,
                                          amplitude=vs.amplitude,
                                          kmax=vs.kmax) for i in block]
            halved = [scale_state(s, 0.5) for s in states] if approx else []
        for i, rep in observe_states(states, c, exact + approx, 0,
                                     ())[1].items():
            full[i][block.start:block.stop] = rep.relative_residual
        if approx:
            for i, rep in observe_states(halved, c, approx, 0, ())[1].items():
                half[i][block.start:block.stop] = rep.relative_residual
    for identity_id in exact:
        # np.max, not max, so that a NaN anywhere reaches `add`
        worst = float(np.max(full[identity_id]))
        add(identity_id, worst <= EXACT_RESIDUAL_TOL, worst,
            EXACT_RESIDUAL_TOL, f"max over {vs.n_states} states")
    lo, hi = APPROX_RATIO_WINDOW
    for identity_id in approx:
        with np.errstate(over="ignore", invalid="ignore"):  # as floats
            ratios = (half[identity_id] / np.maximum(full[identity_id],
                                                     1e-300)).tolist()
        # np.median's float, NaN included, without its numpy.ma import
        med = math.nan if any(map(math.isnan, ratios)) else _median(ratios)
        add(f"{identity_id} scaling", lo <= med <= hi, med, None,
            f"median residual ratio under amplitude halving over "
            f"{vs.n_states} states; want within [{lo}, {hi}]")
    if "POINCARE" in cfg.checks:
        rng = np.random.default_rng(vs.seed)
        bad = 0
        for block in _blocks(range(vs.poincare_fields)):
            fields = [random_smooth_field(grid, rng, kmax=vs.kmax)
                      for _ in block]
            bad += sum(map(len, check_poincare_holder(fields,
                                                     POINCARE_EXPONENTS)))
        add("POINCARE", bad == 0, bad, 0,
            f"{vs.poincare_fields} fields x "
            f"{len(POINCARE_EXPONENTS) ** 2} (p, q) pairs")
    if "PRODUCT_BOUND" in cfg.checks:
        rng = np.random.default_rng(vs.seed + 1)
        bad = 0
        for block in _blocks(range(vs.product_fields)):
            pairs = [(random_smooth_field(grid, rng, kmax=vs.kmax),
                      random_smooth_field(grid, rng, kmax=vs.kmax))
                     for _ in block]
            bad += sum(map(len, product_bound_violations(pairs)))
        add("PRODUCT_BOUND", bad == 0, bad, 0,
            f"{vs.product_fields} field pairs, admissible exponents")

    fits = decay.fits.values() if decay else ()
    if decay:
        fit = decay.fits.get("energy")
        if fit is None:
            add("DECAY", False, None, None, decay.no_fit)
        else:
            ok = fit.fitted_rate <= -2.0 * 0.95 * c.k and fit.r_squared >= 0.99
            add("DECAY", ok, fit.fitted_rate, -2.0 * 0.95 * c.k,
                f"energy rate over window {fit.window}, "
                f"r^2 = {fit.r_squared:.6f}")

    for entry in checks:
        tag = "PASS" if entry["passed"] else "FAIL"
        value = "" if entry["value"] is None else f"  {entry['value']:.3e}"
        print(f"{tag}  {entry['check_id']}{value}")
    failures = [entry["check_id"] for entry in checks if not entry["passed"]]
    status = "ok" if not failures else "check_failure"
    write_summary(cfg.summary_path, _summary(
        "verify", status, cfg, c, **{"run": decay.run} if decay else {},
        checks=checks,
        decay_fits=[_fit_dict(f) for f in fits], failures=failures))
    return status, ("verification failed: " + ", ".join(failures)
                    if failures else "")


def _parse_axes(axis_args: list) -> dict:
    axes = {}
    for spec in axis_args:
        name, _, values = spec.partition("=")
        name = name.strip()
        if not name or not values:
            raise ConfigError(f"bad axis spec {spec!r}; "
                              "expected name=v1,v2,...")
        try:
            parsed = [float(v) for v in values.split(",")]
        except ValueError:
            raise ConfigError(f"non-numeric value in axis {spec!r}") from None
        if name in axes:
            raise ConfigError(f"sweep axis {name} given twice")
        axes[name] = parsed
    if not axes:
        raise ConfigError("empty sweep spec: pass at least one "
                          "--axis name=v1,v2,...")
    return axes


def _sweep_points(cfg: ExperimentConfig, axes: dict):
    for values in itertools.product(*axes.values()):
        point = dict(zip(axes, values))
        point_cfg = apply_overrides(cfg, point)
        bad = check_coefficients(point_cfg.coefficients)
        if bad:
            raise ConfigError(f"sweep point {point} violates: " + ", ".join(
                v.constraint for v in bad))
        yield point, point_cfg


def cmd_sweep(cfg: ExperimentConfig, axis_args: list) -> tuple:
    axes = _parse_axes(axis_args)
    c = validate_coefficients(cfg.coefficients)  # the summary reports it
    work = sum(point_cfg.t_final / point_cfg.resolved_dt() * point_cfg.n_points
               for _, point_cfg in _sweep_points(cfg, axes))
    if work >= MAX_POINT_STEPS:
        raise ConfigError(f"the --axis points take {work:.3g} point-steps; "
                          f"a sweep takes fewer than {MAX_POINT_STEPS:.0e}")
    points, prepared = zip(*[(point, _prepare(point_cfg, False))
                             for point, point_cfg in _sweep_points(cfg, axes)])

    rows, reasons = [], []
    for point, p, result in zip(points, prepared, run_experiment(prepared)):
        fit = result.fits.get("energy")
        reasons += [f"{point}: {result.no_fit}"] if result.no_fit else []
        rows.append({"status": "blow_up" if result.run is None else "ok"
                     if fit else "fit_failed",
                     "fitted_rate": fit and fit.fitted_rate,
                     "r_squared": fit and fit.r_squared,
                     "target_rate": -2.0 * p.c.k,
                     "blow_up_time": result.blow_up_time, "run": result.run})
    blow_ups = [row["blow_up_time"] for row in rows if row["run"] is None]

    if cfg.csv_path is not None:
        names = list(axes) + ["fitted_rate", "target_rate", "r_squared",
                              "status"]
        cells = [{**point, **row} for point, row in zip(points, rows)]
        write_csv(cfg.csv_path, names,
                  {name: [cell[name] for cell in cells] for name in names})

    failed = [point for point, row in zip(points, rows)
              if row["status"] != "ok"]
    status = ("ok" if not failed else "blow_up" if blow_ups
              else "check_failure")
    write_summary(cfg.summary_path, _summary(
        "sweep", status, cfg, c,
        points=[{"point": point, **row} for point, row in zip(points, rows)]))
    for point, row in zip(points, rows):
        rate = ("" if row["fitted_rate"] is None
                else f"  rate {row['fitted_rate']:+.6f} "
                     f"(target {row['target_rate']:+.6f})")
        print(f"{row['status']:>10}  {point}{rate}")
    if blow_ups:
        return status, BLOW_UP_TEXT.format(blow_ups[0])
    return status, "\n".join([f"decay fit failed at sweep points {failed}"]
                             + reasons if failed else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gg",
        description="Damped coupled-KdV pseudospectral runs and verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "march one configured experiment"),
                            ("verify", "evaluate the verification battery"),
                            ("sweep", "rerun over a parameter grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the YAML experiment config")
        if name == "sweep":
            p.add_argument("--axis", action="append", default=[],
                           metavar="NAME=V1,V2,...",
                           help="sweep axis; repeatable")
    args = parser.parse_args(argv)
    # The one place where outcomes become exit codes.
    try:
        cfg = load_config(args.config)
        _check_summary_owner(cfg, args.command)
        if args.command == "run":
            status, message = cmd_run(cfg)
        elif args.command == "verify":
            status, message = cmd_verify(cfg)
        else:
            status, message = cmd_sweep(cfg, args.axis)
    except (ConfigError, CoefficientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if message:
        print(message, file=sys.stderr)
    return EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
