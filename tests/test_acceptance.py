"""Acceptance gate: nine pinned criteria, one PASS/FAIL line each.

Each test prints a single summary line (visible with ``pytest -s`` and in
failure reports) and then asserts. Tolerances are fixed here on purpose —
loosening them is a contract change, not a tuning knob.
"""
import functools
import time

import numpy as np
import pytest

from ggkdv import integrator
from ggkdv.config import ExperimentConfig, InitialSpec, build_initial_state
from ggkdv.integrator import evolve
from ggkdv.model import (CoefficientError, CoefficientSet, SimState,
                         check_coefficients, random_smooth_field,
                         random_smooth_state, validate_coefficients)
from ggkdv.spectral import SpectralField, make_grid
from ggkdv.verification import (check_poincare_holder, fit_decay_rate,
                                product_bound_violations)

from calculus_reference import scaling_ratios
from conftest import observe_one, per_state, reports_of
from linear_reference import linear_exact_solution

COUPLED = CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=1.0)
UNCOUPLED = CoefficientSet(a1=1.0, a2=0.0, a3=0.0, k=1.0)


def _report(num: int, title: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {tag}  {title}: {detail}")


def test_criterion_1_energy_decay_law():
    c = validate_coefficients(COUPLED)
    cfg = ExperimentConfig(
        n_points=128, coefficients=COUPLED,
        initial=InitialSpec(preset="single-mode", amplitude=0.1))
    start = time.perf_counter()
    series = evolve([build_initial_state(cfg)], [c], 2.0, 5e-4, stride=40,
                    observer=per_state(lambda _, s: {
                        "energy": observe_one(s, c, (), 0)[0]["energy"]}))[0]
    runtime = time.perf_counter() - start
    t = np.asarray(series.t)
    energy = np.asarray(series.columns["energy"])
    deviation = float(np.max(np.abs(energy - energy[0] * np.exp(-2.0 * t))
                             / energy[0]))
    passed = deviation <= 1e-6 and runtime < 10.0
    _report(1, "energy tracks e^{-2kt}", passed,
            f"max relative deviation {deviation:.3e} (tol 1e-06), "
            f"runtime {runtime:.2f}s (< 10s)")
    assert passed


def test_criterion_2_mean_conservation():
    worst = 0.0
    for coeffs, preset, amplitude in ((COUPLED, "single-mode", 0.1),
                                      (UNCOUPLED, "two-soliton-like", 1.0)):
        c = validate_coefficients(coeffs)
        cfg = ExperimentConfig(n_points=128, coefficients=coeffs,
                               initial=InitialSpec(preset=preset,
                                                   amplitude=amplitude))
        series = evolve([build_initial_state(cfg)], [c], 1.0, 1e-3,
                        stride=100)[0]
        worst = max(worst, series.meta["max_mean_drift"])
        final = series.meta["final_state"]
        worst = max(worst, abs(final.u.coeffs[0]), abs(final.v.coeffs[0]))

    # the guard is enforcement, not just bookkeeping: a contaminated mean
    # aborts the march immediately
    grid = make_grid(64)
    dirty = np.zeros(grid.n_coeffs, dtype=complex)
    dirty[0] = 1e-10
    dirty[1] = 0.01
    state = SimState(u=SpectralField(grid, dirty),
                     v=SpectralField(grid, np.zeros_like(dirty)),
                     t=0.0, mean_u=0.0, mean_v=0.0)
    c = validate_coefficients(COUPLED)
    with pytest.raises(RuntimeError, match="mean drifted"):
        evolve([state], [c], 0.1, 0.01)

    passed = worst <= 1e-14
    _report(2, "zero mode held at zero", passed,
            f"max |coeff(0)| drift {worst:.3e} (tol 1e-14), "
            "guard raises on contaminated mean")
    assert passed


def test_criterion_3_linearized_oracle(monkeypatch):
    # a zero flux leaves the linear part of each step alone
    monkeypatch.setattr(integrator, "_bind_flux", lambda grid, mix, *pairs:
                        tuple(functools.partial(out.fill, 0.0)
                              for _, out in pairs))
    grid = make_grid(64)
    worst, cases = 0.0, []
    for a3 in (0.0, 0.5, 0.9):
        for k in (0.25, 1.0):
            coeffs = (CoefficientSet(a1=1.0, a2=0.0, a3=0.0, k=k)
                      if a3 == 0.0
                      else CoefficientSet(a1=1.0, a2=1.0, a3=a3, k=k))
            c = validate_coefficients(coeffs)
            s0 = random_smooth_state(grid, seed=5, amplitude=0.5, kmax=8)
            series = evolve([s0], [c], 1.0, 2.0 ** -10)[0]
            num = series.meta["final_state"]
            ref = linear_exact_solution(s0, c, 1.0)
            diff = np.concatenate([num.u.coeffs - ref.u.coeffs,
                                   num.v.coeffs - ref.v.coeffs])
            scale = np.concatenate([ref.u.coeffs, ref.v.coeffs])
            rel = float(np.max(np.abs(diff)) / np.max(np.abs(scale)))
            worst = max(worst, rel)
            cases.append(rel)
    passed = worst <= 1e-10
    _report(3, "linear stepping matches the closed form", passed,
            f"worst relative error {worst:.3e} over {len(cases)} "
            "(a3, k) cases (tol 1e-10)")
    assert passed


def test_criterion_4_exact_identity_battery():
    grid = make_grid(64)
    h1_ids = ("H1_MAIN", "H1_SUB(4.2)", "H1_SUB(4.3)", "H1_SUB(4.4)",
              "H1_SUB(4.5)")
    h2_ids = ("H2_SUB(5.2)", "H2_SUB(5.3)")
    worst, worst_id = 0.0, ""
    for coeffs in (COUPLED, CoefficientSet(a1=1.0, a2=0.0, a3=0.0, k=1.0)):
        c = validate_coefficients(coeffs)
        for seed in range(50):
            state = random_smooth_state(grid, seed=seed, amplitude=0.1,
                                        kmax=8)
            reports = reports_of(
                state, c, [f"GEN_N({n})" for n in range(5)] + list(h1_ids)
                + list(h2_ids))
            for identity_id, rep in reports.items():
                if rep.relative_residual > worst:
                    worst = rep.relative_residual
                    worst_id = f"{identity_id} (branch {c.branch}, "\
                               f"seed {seed})"
    passed = worst <= 1e-8
    _report(4, "exact identity battery", passed,
            f"worst relative residual {worst:.3e} at {worst_id} over "
            "50 states x 2 branches x 12 identities (tol 1e-08)")
    assert passed


def test_criterion_5_approximate_identity_scaling():
    c = validate_coefficients(CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=4.0))
    grid = make_grid(64)
    report_fns = {
        name: lambda s, name=name: reports_of(s, c, [name])[name]
        for name in ("H2_MAIN", "GEN_N_APPROX(3)")
    }
    lo, hi = 0.35, 0.65
    out_of_window, all_ratios = [], []
    for seed in (0, 1, 2, 9, 13, 15):
        state = random_smooth_state(grid, seed=seed, amplitude=0.2, kmax=8)
        for name, fn in report_fns.items():
            # two halvings: residual ratios at amplitudes 0.2 and 0.1
            for ratio in scaling_ratios(fn, state, n_halvings=2):
                all_ratios.append(ratio)
                if not lo <= ratio <= hi:
                    out_of_window.append((name, seed, ratio))
    passed = not out_of_window
    _report(5, "residuals halve with amplitude", passed,
            f"{len(all_ratios)} halving ratios in "
            f"[{min(all_ratios):.3f}, {max(all_ratios):.3f}], "
            f"window [{lo}, {hi}]; offenders: {out_of_window}")
    assert passed


def test_criterion_6_seminorm_decay_rates():
    c = validate_coefficients(CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=0.5))
    grid = make_grid(64)
    state = random_smooth_state(grid, seed=7, amplitude=0.5, kmax=8)
    series = evolve([state], [c], 10.0, 2e-3, stride=100,
                    observer=per_state(
                        lambda _, s: observe_one(s, c, (), 3)[0]))[0]
    fits = [fit_decay_rate(series, f"seminorm_sq_{n}", (5.0, 10.0),
                           target_rate=-1.0) for n in (1, 2, 3)]
    passed = all(f.fitted_rate <= -2.0 * 0.95 * c.k and f.r_squared >= 0.999
                 for f in fits)
    detail = ", ".join(f"n={n}: rate {f.fitted_rate:+.6f} "
                       f"(r^2 {f.r_squared:.6f})"
                       for n, f in zip((1, 2, 3), fits))
    _report(6, "derivative seminorms decay at the damping rate", passed,
            detail + "; need rate <= -0.95 with r^2 >= 0.999")
    assert passed


def test_criterion_7_inequality_sweeps():
    grid = make_grid(64)
    exponents = (1.0, 2.0, 4.0, np.inf)
    rng = np.random.default_rng(0)
    poincare_bad = 0
    for _ in range(1000):
        f = random_smooth_field(grid, rng, kmax=8)
        poincare_bad += len(check_poincare_holder([f], exponents)[0])
    rng = np.random.default_rng(1)
    product_bad = 0
    for _ in range(500):
        u = random_smooth_field(grid, rng, kmax=8)
        v = random_smooth_field(grid, rng, kmax=8)
        product_bad += len(product_bound_violations(
            [(u, v)], n_values=(1, 2, 3), d_max=4)[0])
    passed = poincare_bad == 0 and product_bad == 0
    _report(7, "inequality property sweeps", passed,
            f"{poincare_bad} Poincare/Holder violations in 1000 x 16, "
            f"{product_bad} product-bound violations in 500 field pairs")
    assert passed


def test_criterion_8_etdrk4_temporal_order():
    # Measured in the resolved regime (|lambda_max| dt0 ~ 5.8): classical
    # 4th order requires the fastest linear phase to be resolved, and on a
    # fine dispersive grid at practical dt the scheme's well-documented
    # stiff order reduction would dominate instead.
    grid = make_grid(8)
    c = validate_coefficients(COUPLED)
    state = random_smooth_state(grid, seed=2, amplitude=0.3, kmax=2)

    def final_at(dt):
        return evolve([state], [c], 1.0, dt)[0].meta["final_state"]

    ref = final_at(1.0 / 32768)
    dts, errs = [], []
    for j in range(4):
        dt = 1.0 / 512 / 2 ** j
        st = final_at(dt)
        err = max(np.max(np.abs(st.u.coeffs - ref.u.coeffs)),
                  np.max(np.abs(st.v.coeffs - ref.v.coeffs)))
        dts.append(dt)
        errs.append(float(err))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    passed = 3.5 <= slope <= 4.5 and all(e > 0 for e in errs)
    _report(8, "ETDRK4 global order", passed,
            f"least-squares order {slope:.3f} over dt = 1/512 .. 1/4096 "
            "(want 4.0 +/- 0.5)")
    assert passed


def test_criterion_9_coefficient_gate():
    cases = [
        (CoefficientSet(a1=1.0, a2=1.0, a3=1.0, k=1.0), "a3_magnitude"),
        (CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=1.0, r=0.2), "r_zero"),
        (CoefficientSet(a1=0.5, a2=0.5, a3=0.0, k=1.0), "a1_a2_quadratic"),
        (CoefficientSet(a1=0.9, a2=1.0, a3=0.5, k=1.0), "a1_a3_coupling"),
        (CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=0.0), "k_positive"),
        (CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=1.0, b1=2.0), "b1_unit"),
    ]
    misses = []
    for coeffs, expected in cases:
        named = [v.constraint for v in check_coefficients(coeffs)]
        if expected not in named:
            misses.append((expected, named))
            continue
        with pytest.raises(CoefficientError) as err:
            validate_coefficients(coeffs)
        if expected not in str(err.value):
            misses.append((expected, str(err.value)))
    passed = not misses
    _report(9, "coefficient gate names each violation", passed,
            f"6/6 rejected with the expected constraint id"
            if passed else f"misses: {misses}")
    assert passed
