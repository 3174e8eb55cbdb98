"""Identity battery, inequality sweeps, and decay-rate fitting."""
from collections import Counter
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggkdv import cli, verification
from ggkdv.config import build_initial_state, load_config
from ggkdv.integrator import DiagnosticSeries, evolve
from ggkdv.model import (CoefficientSet, SimState, ValidatedCoefficients,
                         rhs, validate_coefficients)
from ggkdv.spectral import (derivative, integral_of_product, make_grid, shift,
                            zeros)
from ggkdv.verification import (APPROX_IDENTITY_IDS, EXACT_IDENTITY_IDS,
                                HypothesisError, StateCalculus,
                                admissible_exponent_tuples,
                                approx_residual_general_n,
                                check_poincare_holder, check_product_bound,
                                fit_decay_rate, identity_reports, lp_norm,
                                poincare_holder_violations,
                                product_bound_violations, random_smooth_field,
                                random_smooth_state, residual_general_n,
                                residual_h1, residual_h2, residual_l2,
                                scale_state, scaling_ratios)
import product_bound_reference

EXACT_TOL = 1e-9
ROOT = Path(__file__).resolve().parents[1]
POINCARE_EXPONENTS = (1.0, 2.0, 4.0, math.inf)


def all_exact_reports(state, c):
    calc = StateCalculus(state, c)
    reports = {"L2": residual_l2(calc)}
    for n in range(5):
        reports[f"GEN_N({n})"] = residual_general_n(calc, n)
    reports.update(residual_h1(calc))
    reports.update(residual_h2(calc))
    return reports


@pytest.fixture(params=["coupled", "uncoupled"])
def branch_coeffs(request, coeffs_coupled, coeffs_uncoupled):
    return coeffs_coupled if request.param == "coupled" else coeffs_uncoupled


class TestExactIdentityBattery:
    def test_zero_state_all_residuals_zero(self, grid64, coeffs_coupled):
        state = SimState(u=zeros(grid64), v=zeros(grid64), t=0.0,
                         mean_u=0.0, mean_v=0.0)
        for identity_id, rep in all_exact_reports(state, coeffs_coupled).items():
            if identity_id in EXACT_IDENTITY_IDS:
                assert rep.relative_residual == 0.0, identity_id

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_states_machine_precision(self, grid64, branch_coeffs,
                                             seed):
        state = random_smooth_state(grid64, seed=seed, amplitude=0.7)
        reports = all_exact_reports(state, branch_coeffs)
        for identity_id in EXACT_IDENTITY_IDS:
            assert reports[identity_id].relative_residual <= EXACT_TOL, \
                (identity_id, reports[identity_id].relative_residual)

    def test_general_n_holds_with_nonzero_means(self, grid64, coeffs_coupled):
        state = random_smooth_state(grid64, seed=5, amplitude=0.5)
        state = SimState(u=state.u, v=state.v, t=0.0, mean_u=0.8,
                         mean_v=-0.3)
        for n in range(4):
            rep = residual_general_n(StateCalculus(state, coeffs_coupled), n)
            assert rep.relative_residual <= EXACT_TOL

    def test_h1_h2_reject_nonzero_means(self, grid64, coeffs_coupled):
        state = random_smooth_state(grid64, seed=5, amplitude=0.5)
        state = SimState(u=state.u, v=state.v, t=0.0, mean_u=0.8, mean_v=0.0)
        with pytest.raises(ValueError, match="zero means"):
            residual_h1(StateCalculus(state, coeffs_coupled))
        with pytest.raises(ValueError, match="zero means"):
            residual_h2(StateCalculus(state, coeffs_coupled))

    def test_negative_order_rejected(self, grid64, coeffs_coupled):
        state = random_smooth_state(grid64, seed=0, amplitude=0.5)
        with pytest.raises(ValueError):
            residual_general_n(StateCalculus(state, coeffs_coupled), -1)

    def test_residuals_translation_invariant(self, grid64, coeffs_coupled):
        state = random_smooth_state(grid64, seed=9, amplitude=0.6)
        shifted = SimState(u=shift(state.u, 0.37), v=shift(state.v, 0.37),
                           t=0.0, mean_u=0.0, mean_v=0.0)
        base = all_exact_reports(state, coeffs_coupled)
        moved = all_exact_reports(shifted, coeffs_coupled)
        for identity_id in EXACT_IDENTITY_IDS:
            np.testing.assert_allclose(moved[identity_id].lhs,
                                       base[identity_id].lhs,
                                       rtol=1e-9, atol=1e-12)
            assert moved[identity_id].relative_residual <= EXACT_TOL

    def test_exact_sides_scale_with_amplitude(self, grid64, coeffs_coupled):
        # Quadratic part of each identity dominates as amplitude shrinks, so
        # lhs(eps)/eps^2 converges; at fixed eps both sides already agree.
        state = random_smooth_state(grid64, seed=4, amplitude=0.2)
        small = scale_state(state, 0.5)
        for st_ in (state, small):
            rep = residual_l2(StateCalculus(st_, coeffs_coupled))
            assert rep.relative_residual <= EXACT_TOL
        big, little = (residual_l2(StateCalculus(state, coeffs_coupled)).lhs,
                       residual_l2(StateCalculus(small, coeffs_coupled)).lhs)
        assert little == pytest.approx(big / 4.0, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_identity_battery_property(self, seed):
        grid = make_grid(64)
        c = validate_coefficients(CoefficientSet(a1=1.0, a2=1.0, a3=0.5,
                                                 k=1.0))
        state = random_smooth_state(grid, seed=seed, amplitude=0.5)
        reports = all_exact_reports(state, c)
        for identity_id in EXACT_IDENTITY_IDS:
            assert reports[identity_id].relative_residual <= EXACT_TOL

    def test_extended_regime_h1_battery(self, grid64):
        # The H1 identities are algebraic in (a1, a2, a3): they hold even for
        # coefficient sets outside the validated branches, via the documented
        # escape hatch.
        c = ValidatedCoefficients.assume_valid(
            CoefficientSet(a1=0.3, a2=0.7, a3=0.4, k=1.0))
        state = random_smooth_state(grid64, seed=3, amplitude=0.5)
        for identity_id, rep in residual_h1(StateCalculus(state, c)).items():
            assert rep.relative_residual <= EXACT_TOL, identity_id


COUPLED = validate_coefficients(CoefficientSet(a1=1.0, a2=1.0, a3=0.5,
                                               k=1.0))


@functools.lru_cache(maxsize=None)
def seeded_or_marched_state(n_points, seed, marched):
    """A seeded state (band 8), or the same state after 20 steps, whose
    nonlinear term has filled every mode up to the dealiasing cutoff."""
    grid = make_grid(n_points)
    state = random_smooth_state(grid, seed=seed, amplitude=0.5)
    if marched:
        state = evolve([state], [COUPLED], 0.02, 1e-3)[0].meta["final_state"]
        assert state.u.band() == state.v.band() == grid.dealias_cutoff
    return state


key_strategy = st.tuples(st.booleans(), st.sampled_from("uv"),
                         st.integers(min_value=0, max_value=3))


class TestStateCalculus:
    @settings(max_examples=50, deadline=None)
    @given(n_points=st.sampled_from([32, 64, 128]),
           seed=st.integers(min_value=0, max_value=3),
           marched=st.booleans(),
           products=st.lists(st.lists(key_strategy, min_size=1, max_size=4)
                             .map(tuple), min_size=1, max_size=8))
    def test_integrals_equal_integral_of_product_bitwise(
            self, n_points, seed, marched, products):
        state = seeded_or_marched_state(n_points, seed, marched)
        du, dv = rhs(state, COUPLED)
        sources = {(False, "u"): state.u, (False, "v"): state.v,
                   (True, "u"): du, (True, "v"): dv}
        calc = StateCalculus(state, COUPLED)
        for keys in products:
            expected = integral_of_product(
                *(derivative(sources[ddt, letter], order)
                  for ddt, letter, order in keys))
            assert calc.integral(keys) == expected, keys
            assert calc.integral(keys) == expected, keys  # from the memo

    def test_battery_calls_rhs_once_and_resamples_nothing_twice(
            self, monkeypatch):
        cfg = load_config(str(ROOT / "configs/decay.yaml"))
        c = validate_coefficients(cfg.coefficients)
        state = evolve([build_initial_state(cfg)], [c], 0.2,
                       cfg.dt)[0].meta["final_state"]
        rhs_calls, resamples = [], Counter()
        real_rhs, real_padded = verification.rhs, verification.padded_samples

        def counting_rhs(st_, c_):
            rhs_calls.append(st_.t)
            return real_rhs(st_, c_)

        def counting_padded(f, m):
            resamples[id(f), m] += 1  # cached fields live as long as calc
            return real_padded(f, m)

        def forbidden(*fields):
            raise AssertionError("the battery bypasses integral_of_product")

        monkeypatch.setattr(verification, "rhs", counting_rhs)
        monkeypatch.setattr(verification, "padded_samples", counting_padded)
        monkeypatch.setattr(verification, "integral_of_product", forbidden)
        ids = cli._exact_ids(cfg)
        reports = identity_reports(state, c, ids)
        assert list(reports) == ids
        assert len(rhs_calls) == 1
        assert resamples and max(resamples.values()) == 1

    def test_reports_equal_lone_batteries(self, grid64, coeffs_coupled):
        state = random_smooth_state(grid64, seed=3, amplitude=0.5)
        ids = list(EXACT_IDENTITY_IDS + APPROX_IDENTITY_IDS)
        shared = identity_reports(state, coeffs_coupled, ids)
        lone = all_exact_reports(state, coeffs_coupled)
        lone.update(residual_h2(StateCalculus(state, coeffs_coupled)))
        lone["GEN_N_APPROX(3)"] = approx_residual_general_n(
            StateCalculus(state, coeffs_coupled), 3)
        assert shared == {i: lone[i] for i in ids}


class TestApproximateIdentityScaling:
    def test_h2_main_residual_halves_with_amplitude(self, grid64):
        c = validate_coefficients(CoefficientSet(a1=1.0, a2=1.0, a3=0.5,
                                                 k=4.0))
        state = random_smooth_state(grid64, seed=0, amplitude=0.2)
        ratios = scaling_ratios(
            lambda s: residual_h2(StateCalculus(s, c))["H2_MAIN"], state,
            n_halvings=2)
        for ratio in ratios:
            assert 0.35 <= ratio <= 0.65, ratios

    def test_approx_general_n3_residual_halves(self, grid64):
        c = validate_coefficients(CoefficientSet(a1=1.0, a2=1.0, a3=0.5,
                                                 k=4.0))
        state = random_smooth_state(grid64, seed=0, amplitude=0.2)
        ratios = scaling_ratios(
            lambda s: approx_residual_general_n(StateCalculus(s, c), 3), state,
            n_halvings=2)
        for ratio in ratios:
            assert 0.35 <= ratio <= 0.65, ratios

    def test_approx_ids_enumerated(self):
        assert "H2_MAIN" in APPROX_IDENTITY_IDS
        assert "H2_SUB(5.4)" in APPROX_IDENTITY_IDS


class TestPoincareHolder:
    def test_single_mode_explicit_norms(self, grid64):
        # ||sin||_2 = sqrt(1/2) <= ||2 pi cos||_2 = 2 pi sqrt(1/2).
        g = make_sine(grid64)
        assert lp_norm(g, 2) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert check_poincare_holder(g, 2, 2)

    def test_constant_field_trivial(self, grid64):
        f = zeros(grid64)
        coeffs = f.coeffs.copy()
        coeffs[0] = 3.0
        constant = type(f)(grid64, coeffs)
        assert check_poincare_holder(constant, 4, 1)

    def test_infinity_norm_route(self, grid64):
        f = make_sine(grid64)
        assert lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-6)
        assert check_poincare_holder(f, math.inf, 1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           p=st.sampled_from([1.0, 2.0, 4.0, math.inf]),
           q=st.sampled_from([1.0, 2.0, 4.0, math.inf]))
    def test_random_field_sweep(self, seed, p, q):
        grid = make_grid(64)
        rng = np.random.default_rng(seed)
        f = random_smooth_field(grid, rng, kmax=8)
        assert check_poincare_holder(f, p, q)

    @settings(max_examples=25, deadline=None)
    @given(n_points=st.sampled_from([32, 64, 256]),
           seed=st.integers(min_value=0, max_value=10_000),
           kmax=st.integers(min_value=1, max_value=10),
           slack=st.sampled_from([1e-10, 0.0, -0.5]))
    def test_sweep_verdicts_equal_pairwise_checks(self, n_points, seed, kmax,
                                                  slack):
        # A negative slack makes some pairs fail, so both verdicts show.
        rng = np.random.default_rng(seed)
        f = random_smooth_field(make_grid(n_points), rng, kmax=kmax)
        expected = [(p, q) for p in POINCARE_EXPONENTS
                    for q in POINCARE_EXPONENTS
                    if not check_poincare_holder(f, p, q, slack=slack)]
        assert poincare_holder_violations(f, POINCARE_EXPONENTS,
                                          slack=slack) == expected


def make_sine(grid):
    from ggkdv.spectral import from_samples
    return from_samples(grid, np.sin(2.0 * np.pi * grid.nodes()))


class TestProductBound:
    def test_pure_seminorm_case(self, grid64):
        state = random_smooth_state(grid64, seed=1, amplitude=1.0)
        alphas, betas = (0, 0, 2), (0, 0, 0)
        assert check_product_bound(state.u, state.v, alphas, betas)

    def test_hypothesis_violation_raises(self, grid64):
        state = random_smooth_state(grid64, seed=1, amplitude=1.0)
        with pytest.raises(HypothesisError):
            check_product_bound(state.u, state.v, (0, 3), (0, 0))

    def test_degree_below_two_rejected(self, grid64):
        state = random_smooth_state(grid64, seed=1, amplitude=1.0)
        with pytest.raises(HypothesisError):
            check_product_bound(state.u, state.v, (0, 1), (0, 0))

    def test_tuple_enumeration_small(self):
        tuples_n1 = list(admissible_exponent_tuples(1, d_max=4))
        assert tuples_n1
        for alphas, betas in tuples_n1:
            assert len(alphas) == 2 and len(betas) == 2
            assert 2 * (alphas[1] + betas[1]) + alphas[0] + betas[0] <= 4
            assert sum(alphas) + sum(betas) >= 2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sweep_no_violations(self, grid64, seed):
        rng = np.random.default_rng(seed)
        u = random_smooth_field(grid64, rng, kmax=8)
        v = random_smooth_field(grid64, rng, kmax=8)
        assert product_bound_violations(u, v) == []

    @settings(max_examples=25, deadline=None)
    @given(n_points=st.sampled_from([32, 64, 256]),
           seed=st.integers(min_value=0, max_value=10_000),
           kmax=st.integers(min_value=1, max_value=10),
           n_values=st.sampled_from([(1,), (2, 3), (1, 2, 3), (3, 1)]),
           d_max=st.integers(min_value=2, max_value=4))
    def test_sweep_sides_equal_per_tuple_reference_bitwise(
            self, n_points, seed, kmax, n_values, d_max):
        # slack = -inf reports every tuple with its left and right side.
        rng = np.random.default_rng(seed)
        u = random_smooth_field(make_grid(n_points), rng, kmax=kmax)
        v = random_smooth_field(make_grid(n_points), rng, kmax=kmax)
        for slack in (-math.inf, 1e-10):
            assert (product_bound_violations(u, v, n_values, d_max, slack)
                    == product_bound_reference.product_bound_violations(
                        u, v, n_values, d_max, slack))


class TestDecayFit:
    def make_series(self, t, values):
        return DiagnosticSeries(t=np.asarray(t),
                                columns={"q": np.asarray(values)}, meta={})

    def test_exact_exponential_recovered(self):
        t = np.linspace(0.0, 5.0, 200)
        series = self.make_series(t, 3.0 * np.exp(-1.5 * t))
        fit = fit_decay_rate(series, "q", (0.0, 5.0), target_rate=-1.5)
        assert fit.fitted_rate == pytest.approx(-1.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 200

    def test_modulated_exponential_within_one_percent(self):
        t = np.linspace(0.0, 10.0, 500)
        series = self.make_series(
            t, 2.0 * np.exp(-0.8 * t) * (1.0 + 0.01 * np.sin(t)))
        fit = fit_decay_rate(series, "q", (0.0, 10.0), target_rate=-0.8)
        assert fit.fitted_rate == pytest.approx(-0.8, rel=0.01)

    def test_window_restricts_points(self):
        t = np.linspace(0.0, 4.0, 81)
        series = self.make_series(t, np.exp(-2.0 * t))
        fit = fit_decay_rate(series, "q", (1.0, 3.0), target_rate=-2.0)
        assert fit.n_points == 41
        assert fit.window == (1.0, 3.0)

    def test_rounding_floor_excluded(self):
        t = np.linspace(0.0, 10.0, 100)
        values = np.exp(-2.0 * t)
        values[50:] = 1e-16  # saturated tail far below 1e-13 * initial
        series = self.make_series(t, values)
        fit = fit_decay_rate(series, "q", (0.0, 10.0), target_rate=-2.0)
        assert fit.n_points == 50
        assert fit.fitted_rate == pytest.approx(-2.0, abs=1e-9)

    def test_too_few_points_rejected(self):
        t = np.linspace(0.0, 1.0, 10)
        series = self.make_series(t, np.zeros(10))
        with pytest.raises(ValueError, match="fewer than 3"):
            fit_decay_rate(series, "q", (0.0, 1.0), target_rate=-1.0)
