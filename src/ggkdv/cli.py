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

All three march through one pipeline, `run_experiment`. Exit codes, the same
for every command: 0 success, 2 configuration or coefficient error, 3 blow-up,
4 verification failure.
"""
from __future__ import annotations

import argparse
from dataclasses import dataclass
import importlib.resources
import json
import math
import sys
from typing import NamedTuple

import jsonschema
import numpy as np

from .config import (ConfigError, ExperimentConfig, apply_overrides,
                     atomic_write_text, build_initial_state, load_config)
from .functionals import functional_record
from .integrator import BlowUpError, DiagnosticSeries, default_dt, evolve
from .model import (CoefficientError, SimState, ValidatedCoefficients,
                    check_coefficients, validate_coefficients)
from .spectral import make_grid
from .verification import (APPROX_IDENTITY_IDS, EXACT_IDENTITY_IDS,
                           fit_decay_rate, identity_reports,
                           poincare_holder_violations,
                           product_bound_violations, random_smooth_field,
                           random_smooth_state, scale_state)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_VERIFY = 4

EXACT_RESIDUAL_TOL = 1e-8
# An amplitude halving must roughly halve an approximate identity's relative
# residual (cubic dropped terms over a quadratic normalizer), +/- 25%.
APPROX_RATIO_WINDOW = (0.25, 0.75)
POINCARE_EXPONENTS = (1.0, 2.0, 4.0, math.inf)
ZERO_MEAN_CHECKS = ("H1", "H2")  # their identities assume M = N = 0


class CheckFailure(Exception):
    """A command ran to the end but a check it certifies failed."""


def _fmt(value) -> str:
    return format(float(value), ".17g")


def load_summary_schema() -> dict:
    text = (importlib.resources.files("ggkdv")
            .joinpath("schemas/summary.schema.json").read_text("utf-8"))
    return json.loads(text)


def validate_summary(summary: dict) -> None:
    jsonschema.validate(summary, load_summary_schema())


def write_summary(path: str | None, summary: dict) -> None:
    validate_summary(summary)
    if path is not None:
        atomic_write_text(path, json.dumps(summary, indent=2) + "\n")


def write_csv(path: str, names: list, columns: dict) -> None:
    n_rows = len(columns[names[0]])
    lines = [",".join(names)]
    for i in range(n_rows):
        lines.append(",".join(_fmt(columns[name][i]) for name in names))
    atomic_write_text(path, "\n".join(lines) + "\n")


def render_energy_svg(path: str, t, energy) -> bool:
    """Log10-energy line plot, written as a self-contained SVG document."""
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
    return True


def _summary(command: str, status: str, cfg: ExperimentConfig,
             **rest) -> dict:
    c = validate_coefficients(cfg.coefficients)
    coefficients = c.to_coefficient_set().to_dict()
    coefficients["branch"] = c.branch
    grid = make_grid(cfg.n_points)
    return {"schema_version": 1, "command": command, "status": status,
            "grid": {"n_points": grid.n_points, "n_modes": grid.n_modes,
                     "dealias_cutoff": grid.dealias_cutoff},
            "coefficients": coefficients, **rest}


def _fit_dict(fit) -> dict:
    return {"quantity_id": fit.quantity_id, "window": list(fit.window),
            "fitted_rate": fit.fitted_rate, "intercept": fit.intercept,
            "target_rate": fit.target_rate, "r_squared": fit.r_squared,
            "n_points": fit.n_points}


def _group(ids, check: str) -> list:
    """The ids among `ids` that a check name stands for (H1 -> H1_MAIN, ...)."""
    return [i for i in ids if i == check or i.startswith(check + "_")]


def _exact_ids(cfg: ExperimentConfig) -> list:
    """Exact identity ids behind the configured checks, in a fixed order."""
    ids = []
    for check in ("L2", "GEN_N", "H1", "H2"):
        if check not in cfg.checks:
            continue
        if check == "GEN_N":
            ids.extend(f"GEN_N({n})" for n in range(cfg.n_max + 1))
        else:
            ids.extend(_group(EXACT_IDENTITY_IDS, check))
    return ids


def _resolve_dt(cfg: ExperimentConfig, grid, c) -> float:
    """An explicit dt is honored, a default one is rounded so that whole
    steps and whole strides tile [0, t_final] exactly."""
    if cfg.dt is not None:
        return cfg.dt
    guess = default_dt(grid, c)
    n_steps = max(cfg.stride, int(math.ceil(cfg.t_final / guess)))
    n_steps = ((n_steps + cfg.stride - 1) // cfg.stride) * cfg.stride
    return cfg.t_final / n_steps


@dataclass(frozen=True)
class RunResult:
    """One march of a configured experiment and what was measured on it."""

    series: DiagnosticSeries  # functional_record columns, then per tracked
                              # identity its defect::<id> and norm::<id>
    residuals: dict   # tracked identity id -> run-level relative residual
    skipped: list     # ZERO_MEAN_CHECKS dropped: the initial means are not 0
    fits: dict        # quantity id -> DecayFit over the fit window
    fit_errors: dict  # quantity id -> why its fit failed

    def record_names(self) -> list:
        return [name for name in self.series.columns if "::" not in name]


class _Point(NamedTuple):
    """One config, ready to march."""

    cfg: ExperimentConfig
    c: ValidatedCoefficients
    state: SimState
    identity_ids: list  # exact identities tracked along the trajectory
    skipped: list       # ZERO_MEAN_CHECKS dropped: the initial means are not 0
    dt: float


def _prepare(cfg: ExperimentConfig, identity_ids) -> _Point:
    c = validate_coefficients(cfg.coefficients)
    grid = make_grid(cfg.n_points)
    state = build_initial_state(cfg, grid)
    ids, skipped = list(identity_ids), []
    if state.mean_u != 0.0 or state.mean_v != 0.0:
        skipped = [check for check in ZERO_MEAN_CHECKS if _group(ids, check)]
        ids = [i for i in ids if not i.startswith(ZERO_MEAN_CHECKS)]
    return _Point(cfg, c, state, ids, skipped, _resolve_dt(cfg, grid, c))


def run_experiment(cfgs, identity_ids=()) -> list:
    """Validate, build grid and initial state, march, and fit decay rates for
    each config, tracking the given exact identities along each trajectory.

    Configs that share grid, span, stride and resolved dt march as one
    ensemble; each gets bitwise the numbers of a lone march. Returns, per
    config in order, its RunResult or the BlowUpError naming the time at
    which its state first became non-finite. Raises CoefficientError for an
    inadmissible coefficient set.
    """
    points = [_prepare(cfg, identity_ids) for cfg in cfgs]
    groups = {}
    for index, p in enumerate(points):
        key = (p.cfg.n_points, p.cfg.t_final, p.cfg.stride, p.dt)
        groups.setdefault(key, []).append(index)
    outcomes = [None] * len(points)
    for (_, t_final, stride, dt), members in groups.items():
        group = [points[index] for index in members]

        def record_observer(i, st):
            p = group[i]
            return functional_record(st, p.c, p.cfg.n_max).as_columns()

        def residual_observer(i, st):
            # Defect and normalizer are aggregated separately over the run:
            # at isolated degenerate states (e.g. a pure mode at t = 0) both
            # sides of a cross-term identity vanish to round-off, so the
            # instantaneous ratio is 0/0 noise; the run-level residual
            # divides the worst defect by the run's own scale instead.
            row = {}
            for key, rep in identity_reports(st, group[i].c,
                                             group[i].identity_ids).items():
                row[f"defect::{key}"] = abs(rep.lhs - rep.rhs)
                row[f"norm::{key}"] = rep.normalizer
            return row

        observers = [record_observer]
        if any(p.identity_ids for p in group):
            observers.append(residual_observer)
        run = evolve([p.state for p in group], [p.c for p in group],
                     t_final, dt, observers=observers, stride=stride)
        for index, p, series in zip(members, group, run.members):
            outcomes[index] = (series if isinstance(series, BlowUpError)
                               else _measure(p, series))
    return outcomes


def _measure(p: _Point, series: DiagnosticSeries) -> RunResult:
    """Run-level identity residuals and decay fits of one marched point."""
    residuals = {}
    for i in p.identity_ids:
        defect = float(np.max(series.columns[f"defect::{i}"]))
        norm = float(np.max(series.columns[f"norm::{i}"]))
        residuals[i] = defect / max(norm, 1e-30)
    fits, fit_errors = {}, {}
    for name in ["energy"] + [f"seminorm_sq_{n}"
                              for n in range(1, p.cfg.n_max + 1)]:
        try:
            fits[name] = fit_decay_rate(series, name,
                                        p.cfg.resolved_fit_window(),
                                        target_rate=-2.0 * p.c.k)
        except ValueError as exc:  # zero data or window too sparse
            fit_errors[name] = str(exc)
    return RunResult(series=series, residuals=residuals, skipped=p.skipped,
                     fits=fits, fit_errors=fit_errors)


def cmd_run(cfg: ExperimentConfig) -> None:
    result = run_experiment([cfg], _exact_ids(cfg))[0]
    if isinstance(result, BlowUpError):
        write_summary(cfg.summary_path, _summary(
            "run", "blow_up", cfg, run=None, energy=None,
            blow_up_time=result.time))
        raise result
    series, meta = result.series, result.series.meta
    if cfg.csv_path is not None:
        write_csv(cfg.csv_path, result.record_names(), series.columns)
        print(f"wrote {cfg.csv_path}")

    offenders = [i for i, r in result.residuals.items()
                 if r > EXACT_RESIDUAL_TOL]
    energy_col = series.columns["energy"]
    summary = _summary(
        "run", "ok" if not offenders else "identity_failure", cfg,
        run={"dt": meta["dt"], "t_final": cfg.t_final,
             "stride": meta["stride"], "n_steps": meta["n_steps"],
             "n_observations": len(series.t),
             "max_mean_drift": meta["max_mean_drift"]},
        energy={"initial": float(energy_col[0]),
                "final": float(energy_col[-1])},
        identity_residuals=result.residuals,
        decay_fits=[_fit_dict(f) for f in result.fits.values()],
        blow_up_time=None)
    if result.skipped:
        summary["failures"] = [f"{name}: skipped (identities require "
                               "zero-mean data)" for name in result.skipped]
    write_summary(cfg.summary_path, summary)
    if cfg.summary_path is not None:
        print(f"wrote {cfg.summary_path}")
    if cfg.plot_path is not None:
        if render_energy_svg(cfg.plot_path, series.t, energy_col):
            print(f"wrote {cfg.plot_path}")

    if offenders:
        raise CheckFailure("\n".join(
            f"identity failure: {i} relative residual "
            f"{result.residuals[i]:.3e} > {EXACT_RESIDUAL_TOL}"
            for i in offenders))


def _median(values: list) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def cmd_verify(cfg: ExperimentConfig) -> None:
    c = validate_coefficients(cfg.coefficients)
    grid = make_grid(cfg.n_points)
    vs = cfg.verify
    states = [random_smooth_state(grid, seed=vs.seed + i,
                                  amplitude=vs.amplitude, kmax=vs.kmax)
              for i in range(vs.n_states)]

    checks = []

    def add(check_id, passed, value=None, threshold=None, detail=None):
        checks.append({"check_id": check_id, "passed": bool(passed),
                       "value": None if value is None else float(value),
                       "threshold": threshold, "detail": detail})

    exact = _exact_ids(cfg)
    approx = (_group(APPROX_IDENTITY_IDS, "H2") if "H2" in cfg.checks
              else [])
    full = [identity_reports(s, c, exact + approx) for s in states]
    for identity_id in exact:
        worst = max(r[identity_id].relative_residual for r in full)
        add(identity_id, worst <= EXACT_RESIDUAL_TOL, worst,
            EXACT_RESIDUAL_TOL, f"max over {len(full)} states")
    if approx:
        half = [identity_reports(scale_state(s, 0.5), c, approx)
                for s in states]
        lo, hi = APPROX_RATIO_WINDOW
        for identity_id in approx:
            med = _median([h[identity_id].relative_residual
                           / max(f[identity_id].relative_residual, 1e-300)
                           for f, h in zip(full, half)])
            add(f"{identity_id} scaling", lo <= med <= hi, med, None,
                f"median residual ratio under amplitude halving over "
                f"{len(half)} states; want within [{lo}, {hi}]")
    if "POINCARE" in cfg.checks:
        rng = np.random.default_rng(vs.seed)
        bad = 0
        for _ in range(vs.poincare_fields):
            f = random_smooth_field(grid, rng, kmax=vs.kmax)
            bad += len(poincare_holder_violations(f, POINCARE_EXPONENTS))
        add("POINCARE", bad == 0, bad, 0,
            f"{vs.poincare_fields} fields x "
            f"{len(POINCARE_EXPONENTS) ** 2} (p, q) pairs")
    if "PRODUCT_BOUND" in cfg.checks:
        rng = np.random.default_rng(vs.seed + 1)
        bad = 0
        for _ in range(vs.product_fields):
            u = random_smooth_field(grid, rng, kmax=vs.kmax)
            v = random_smooth_field(grid, rng, kmax=vs.kmax)
            bad += len(product_bound_violations(u, v))
        add("PRODUCT_BOUND", bad == 0, bad, 0,
            f"{vs.product_fields} field pairs, admissible exponents")

    fits = []
    if "DECAY" in cfg.checks:
        result = run_experiment([cfg])[0]
        if isinstance(result, BlowUpError):
            add("DECAY", False, None, None,
                f"blow-up at t = {result.time:.6g}")
        else:
            fit = result.fits.get("energy")
            if fit is None:
                add("DECAY", False, None, None,
                    f"fit failed: {result.fit_errors['energy']}")
            else:
                fits.append(fit)
                ok = (fit.fitted_rate <= -2.0 * 0.95 * c.k
                      and fit.r_squared >= 0.99)
                add("DECAY", ok, fit.fitted_rate, -2.0 * 0.95 * c.k,
                    f"energy rate over window {fit.window}, "
                    f"r^2 = {fit.r_squared:.6f}")

    failures = [entry["check_id"] for entry in checks if not entry["passed"]]
    write_summary(cfg.summary_path, _summary(
        "verify", "ok" if not failures else "check_failure", cfg,
        checks=checks, decay_fits=[_fit_dict(f) for f in fits],
        failures=failures))
    for entry in checks:
        tag = "PASS" if entry["passed"] else "FAIL"
        value = "" if entry["value"] is None else f"  {entry['value']:.3e}"
        print(f"{tag}  {entry['check_id']}{value}")
    if cfg.summary_path is not None:
        print(f"wrote {cfg.summary_path}")
    if failures:
        raise CheckFailure("verification failed: " + ", ".join(failures))


def _parse_axes(axis_args: list) -> list:
    axes = []
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
        axes.append((name, parsed))
    if not axes:
        raise ConfigError("empty sweep spec: pass at least one "
                          "--axis name=v1,v2,...")
    return axes


def _sweep_points(axes: list) -> list:
    points = [{}]
    for name, values in axes:
        points = [{**p, name: v} for p in points for v in values]
    return points


def cmd_sweep(cfg: ExperimentConfig, axis_args: list) -> None:
    axes = _parse_axes(axis_args)
    points = _sweep_points(axes)
    configs = [apply_overrides(cfg, point) for point in points]
    validate_coefficients(cfg.coefficients)  # the summary reports this set
    for point, point_cfg in zip(points, configs):
        bad = check_coefficients(point_cfg.coefficients)
        if bad:
            names = ", ".join(v.constraint for v in bad)
            raise ConfigError(f"sweep point {point} violates: {names}")

    rows, blow_ups = [], []
    for point_cfg, result in zip(configs, run_experiment(configs)):
        row = {"status": "ok", "fitted_rate": None, "r_squared": None,
               "target_rate": -2.0 * point_cfg.coefficients.k,
               "blow_up_time": None}
        if isinstance(result, BlowUpError):
            blow_ups.append(result)
            row.update(status="blow_up", blow_up_time=result.time)
        else:
            fit = result.fits.get("energy")
            if fit is None:
                row.update(status="fit_failed")
            else:
                row.update(fitted_rate=fit.fitted_rate,
                           r_squared=fit.r_squared)
        rows.append(row)

    axis_names = [name for name, _ in axes]
    if cfg.csv_path is not None:
        names = axis_names + ["fitted_rate", "target_rate", "r_squared",
                              "status"]
        lines = [",".join(names)]
        for point, row in zip(points, rows):
            cells = [_fmt(point[a]) for a in axis_names]
            for key in ("fitted_rate", "target_rate", "r_squared"):
                cells.append("" if row[key] is None else _fmt(row[key]))
            cells.append(row["status"])
            lines.append(",".join(cells))
        atomic_write_text(cfg.csv_path, "\n".join(lines) + "\n")
        print(f"wrote {cfg.csv_path}")

    failed = [point for point, row in zip(points, rows)
              if row["status"] != "ok"]
    status = ("ok" if not failed else "blow_up" if blow_ups
              else "check_failure")
    write_summary(cfg.summary_path, _summary(
        "sweep", status, cfg,
        points=[{"point": point, **row} for point, row in zip(points, rows)]))
    if cfg.summary_path is not None:
        print(f"wrote {cfg.summary_path}")
    for point, row in zip(points, rows):
        rate = ("" if row["fitted_rate"] is None
                else f"  rate {row['fitted_rate']:+.6f} "
                     f"(target {row['target_rate']:+.6f})")
        print(f"{row['status']:>10}  {point}{rate}")
    if blow_ups:
        raise blow_ups[0]
    if failed:
        raise CheckFailure(f"decay fit failed at sweep points {failed}")


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
        if args.command == "run":
            cmd_run(cfg)
        elif args.command == "verify":
            cmd_verify(cfg)
        else:
            cmd_sweep(cfg, args.axis)
    except (ConfigError, CoefficientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up: first non-finite state at t = {exc.time:.6g}",
              file=sys.stderr)
        return EXIT_BLOWUP
    except CheckFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
