"""Identity battery, inequality sweeps, and decay-rate fitting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggkdv import functionals, identities, spectral, verification
from ggkdv.config import load_config
from ggkdv.integrator import DiagnosticSeries
from ggkdv.model import (CoefficientSet, SimState, ValidatedCoefficients,
                         random_smooth_field, random_smooth_state, rhs,
                         scale_state, validate_coefficients)
from ggkdv.spectral import integral_of_product, make_grid
from ggkdv.verification import (admissible_exponent_tuples,
                                check_poincare_holder, fit_decay_rate,
                                observation_plan, observe_states,
                                product_bound_violations)
from calculus_reference import (StateCalculus, approx_residual_general_n,
                                residual_general_n, residual_h1, residual_h2,
                                residual_l2, scaling_ratios)
from conftest import (COUPLED, ROOT, decay_marched_state, observe_one,
                      reports_of, rhs_fields, seeded_or_marched_state)
import calculus_reference
import fit_reference
import plan_reference
import product_bound_reference
from product_bound_reference import (HypothesisError, check_product_bound,
                                     product_bound_sides)
from spectral_reference import (derivative, lp_norm, poincare_holder, shift,
                                zeros)

EXACT_TOL = 1e-9
# every identity the battery defines, with GEN_N(n) at n = 0..4 and
# GEN_N_APPROX(n) at n = 3
EXACT_IDENTITY_IDS = ("L2", "GEN_N(0)", "GEN_N(1)", "GEN_N(2)", "GEN_N(3)",
                      "GEN_N(4)", "H1_MAIN", "H1_SUB(4.2)", "H1_SUB(4.3)",
                      "H1_SUB(4.4)", "H1_SUB(4.5)", "H2_SUB(5.2)",
                      "H2_SUB(5.3)")
APPROX_IDENTITY_IDS = ("H2_MAIN", "H2_SUB(5.4)", "H2_SUB(5.5)", "H2_SUB(5.6)",
                       "GEN_N_APPROX(3)")
POINCARE_EXPONENTS = (1.0, 2.0, 4.0, math.inf)


def bits(values: dict) -> dict:
    """Each float's exact bit pattern, so that -0.0 differs from 0.0."""
    return {key: float(value).hex() for key, value in values.items()}


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
        c = ValidatedCoefficients(
            **CoefficientSet(a1=0.3, a2=0.7, a3=0.4, k=1.0).to_dict())
        state = random_smooth_state(grid64, seed=3, amplitude=0.5)
        for identity_id, rep in residual_h1(StateCalculus(state, c)).items():
            assert rep.relative_residual <= EXACT_TOL, identity_id


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
        du, dv = rhs_fields(state, COUPLED)
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
        cfg, c, state = decay_marched_state()
        rhs_calls, batches = [], []
        real_rhs, real_rows = functionals.rhs, functionals.padded_samples

        def counting_rhs(states_, c_):
            rhs_calls.append([st_.t for st_ in states_])
            return real_rhs(states_, c_)

        def counting_rows(coeffs, bands, m):
            batches.append((m, [row.tobytes() for row in coeffs]))
            return real_rows(coeffs, bands, m)

        def forbidden(*args):
            raise AssertionError("the battery samples and integrates only "
                                 "through its compiled plan")

        monkeypatch.setattr(functionals, "rhs", counting_rhs)
        monkeypatch.setattr(functionals, "padded_samples", counting_rows)
        monkeypatch.setattr(spectral, "integral_of_product", forbidden)
        monkeypatch.setattr(spectral, "padded_samples", forbidden)
        ids = identities.check_identities(cfg.checks, cfg.n_max, c)[0]
        reports = reports_of(state, c, ids)
        assert list(reports) == ids
        assert len(rhs_calls) == 1
        sizes = [m for m, _ in batches]
        assert batches and len(sizes) == len(set(sizes))
        for m, rows in batches:  # no (field, m) sampled twice
            assert len(rows) == len(set(rows)), m

    def test_untracked_reports_are_not_evaluated(self, monkeypatch):
        # gg run tracks H2_SUB(5.2) and 5.3 only; H2_MAIN and 5.4-5.6 must
        # add nothing to its plan.
        cfg, c, state = decay_marched_state()
        ids = identities.check_identities(cfg.checks, cfg.n_max, c)[0]
        untracked = [i for i in APPROX_IDENTITY_IDS if i.startswith("H2_")]

        def integrals(identity_ids):
            return set(observation_plan(c, tuple(identity_ids))
                       .sums.integrals)

        sampled = []
        real_rows = functionals.padded_samples
        monkeypatch.setattr(functionals, "padded_samples",
                            lambda coeffs, bands, m: sampled.append(
                                len(coeffs)) or real_rows(coeffs, bands, m))

        def n_sampled(identity_ids):
            sampled.clear()
            reports_of(state, c, identity_ids)
            return sum(sampled)

        tracked, everything = integrals(ids), integrals(ids + untracked)
        assert tracked == set().union(*(integrals([i]) for i in ids))
        assert tracked < everything
        assert (len(tracked), len(everything)) == (127, 145)
        assert (n_sampled(ids), n_sampled(ids + untracked)) == (16, 18)

    @pytest.mark.parametrize("coeffs", [
        CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=0.75),
        CoefficientSet(a1=1.0, a2=0.0, a3=0.0, k=0.75),
        CoefficientSet(a1=0.3, a2=0.7, a3=0.4, k=0.75)],
        ids=["coupled", "uncoupled", "extended"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_main_identities_take_the_record_functionals(self, grid64, coeffs,
                                                         seed):
        # f1, g1, f2, g2 and h2 are written once: the H1_MAIN and H2_MAIN
        # terms are the record's columns times the same factors, bitwise.
        c = ValidatedCoefficients(**coeffs.to_dict())
        state = random_smooth_state(grid64, seed=seed, amplitude=0.5)
        rec = observe_one(state, c, (), 4)[0]
        calc = StateCalculus(state, c)
        h1, h2 = residual_h1(calc)["H1_MAIN"], residual_h2(calc)["H2_MAIN"]
        assert bits(h1.terms) == bits({"-2k f1": -2 * c.k * rec["f1"],
                                       "-3k g1": -3 * c.k * rec["g1"]})
        assert bits(h2.terms) == bits({"-2k f2": -2 * c.k * rec["f2"],
                                       "h2": rec["h2"]})

    def test_reports_equal_lone_batteries(self, grid64, coeffs_coupled):
        state = random_smooth_state(grid64, seed=3, amplitude=0.5)
        ids = list(EXACT_IDENTITY_IDS + APPROX_IDENTITY_IDS)
        shared = reports_of(state, coeffs_coupled, ids)
        lone = all_exact_reports(state, coeffs_coupled)
        lone.update(residual_h2(StateCalculus(state, coeffs_coupled)))
        lone["GEN_N_APPROX(3)"] = approx_residual_general_n(
            StateCalculus(state, coeffs_coupled), 3)
        assert shared == {i: lone[i] for i in ids}


ALL_IDS = list(EXACT_IDENTITY_IDS + APPROX_IDENTITY_IDS)
BRANCHES = {
    "coupled": COUPLED,
    "uncoupled": validate_coefficients(
        CoefficientSet(a1=1.0, a2=0.0, a3=0.0, k=1.0)),
    "extended": ValidatedCoefficients(
        **CoefficientSet(a1=0.3, a2=0.7, a3=0.4, k=0.75).to_dict()),
}


def report_bits(rep) -> tuple:
    return (rep.identity_id, float(rep.lhs).hex(), float(rep.rhs).hex(),
            list(rep.terms), bits(rep.terms), float(rep.normalizer).hex(),
            float(rep.relative_residual).hex())


class TestObservationPlan:
    @settings(max_examples=40, deadline=None)
    @given(n_points=st.sampled_from([32, 64, 128, 256]),
           seed=st.integers(min_value=0, max_value=3),
           marched=st.booleans(),
           branch=st.sampled_from(sorted(BRANCHES)),
           n_max=st.integers(min_value=0, max_value=4))
    def test_plan_equals_calculus_oracle_bitwise(self, n_points, seed,
                                                 marched, branch, n_max):
        # Every compiled integral, report field and record column is the
        # oracle's, bit for bit (signed zeros included).
        state = seeded_or_marched_state(n_points, seed, marched)
        c = BRANCHES[branch]
        calc = StateCalculus(state, c)
        plan = observation_plan(c, tuple(ALL_IDS), n_max, None)
        values = plan.sums.values([state], c)[0]
        for i, keys in enumerate(plan.sums.integrals):
            assert float(values[i]).hex() == calc.integral(keys).hex(), keys

        oracle = calculus_reference.reports(state, c, ALL_IDS)
        expected = [report_bits(oracle[i]) for i in ALL_IDS]
        shipped = reports_of(state, c, ALL_IDS)
        assert list(shipped) == ALL_IDS
        assert [report_bits(shipped[i]) for i in ALL_IDS] == expected

        columns = {name: calc.value(monomials) for name, monomials
                   in functionals.functional_record(c, n_max).items()}
        record, observed = observe_one(state, c, ALL_IDS, n_max)
        assert record == observe_one(state, c, (), n_max)[0]
        assert list(record) == ["t", *columns]
        assert bits({name: record[name] for name in columns}) == \
            bits(columns)
        assert [report_bits(observed[i]) for i in ALL_IDS] == expected

    def test_observation_calls_rhs_once(self, monkeypatch):
        cfg, c, state = decay_marched_state()
        rhs_calls = []
        real_rhs = functionals.rhs
        monkeypatch.setattr(functionals, "rhs", lambda states_, c_: (
            rhs_calls.append([st_.t for st_ in states_])
            or real_rhs(states_, c_)))
        observe_one(state, c,
                    identities.check_identities(cfg.checks, cfg.n_max, c)[0],
                    cfg.n_max)
        assert len(rhs_calls) == 1
        assert not observation_plan(c, (), cfg.n_max, None).sums.needs_rhs

    def test_zero_mean_identities_reject_nonzero_means(self, grid64):
        state = random_smooth_state(grid64, seed=5, amplitude=0.5)
        state = SimState(u=state.u, v=state.v, t=0.0, mean_u=0.8, mean_v=0.0)
        for ids in (["H1_MAIN"], ["L2", "H2_SUB(5.2)"]):
            with pytest.raises(ValueError, match="zero means"):
                reports_of(state, COUPLED, ids)
        with pytest.raises(ValueError, match="zero means"):
            observe_one(state, COUPLED, ["H1_SUB(4.2)"], 2)
        assert reports_of(state, COUPLED, ["L2", "GEN_N(2)"])


def same_bits(got, want) -> bool:
    """Equal shapes and bits, NaN matching any NaN, -0.0 not 0.0."""
    got = np.asarray(got, dtype=np.complex128).view(np.float64)
    want = np.asarray(want, dtype=np.complex128).view(np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64),
                               want[~nan].view(np.int64)))


@st.composite
def stacks(draw):
    """1-6 states on one grid of 8-256 points, each of its own band and
    amplitude (zero fields among them), some with a non-finite
    coefficient; nonzero means when `zero_mean` is drawn False."""
    grid = make_grid(2 * draw(st.integers(4, 128)))
    zero_mean = draw(st.booleans())
    states = []
    for _ in range(draw(st.integers(1, 6))):
        state = random_smooth_state(
            grid, seed=draw(st.integers(0, 2 ** 16)),
            amplitude=draw(st.sampled_from([0.0, 1e-3, 0.5, 4.0])),
            kmax=draw(st.integers(1, grid.dealias_cutoff)))
        u = state.u.coeffs.copy()
        if draw(st.booleans()):
            u[draw(st.integers(1, grid.n_coeffs - 1))] = draw(
                st.sampled_from([np.inf, -np.inf, np.nan]))
        means = (0.0, 0.0) if zero_mean else (
            draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        states.append(SimState(spectral.SpectralField(grid, u), state.v, 0.0,
                               *means))
    return states, zero_mean


class TestStackedObservation:
    """A stack of states evaluated at once against the per-state oracles
    of `plan_reference`, bitwise."""

    @settings(max_examples=30, deadline=None)
    @given(stacks(), st.sampled_from(sorted(BRANCHES)),
           st.integers(min_value=0, max_value=4))
    def test_stack_equals_per_state_oracles(self, stack, branch, n_max):
        states, zero_mean = stack
        c = BRANCHES[branch]
        ids = ALL_IDS if zero_mean else [
            i for i in ALL_IDS if not i.startswith(("H1", "H2"))]
        plan = observation_plan(c, tuple(ids), n_max, None)
        with np.errstate(all="ignore"):
            values = plan.sums.values(states, c)
            derivatives = rhs(states, c)
            rows, reports = observe_states(states, c, ids, n_max)
            for s, state in enumerate(states):
                assert same_bits(values[s],
                                 plan_reference.values(plan.sums, state, c))
                assert same_bits(derivatives[s], [
                    f.coeffs for f in plan_reference.rhs(state, c)])
                sums = plan_reference.evaluate(plan.sums, state, c)
                assert same_bits([rows[s][name] for name, _ in plan.columns],
                                 [sums[i] for _, i in plan.columns])
                for i in ids:
                    lhs, total, terms, normalizer, residual = (
                        plan_reference.report(plan, sums, i))
                    rep = reports[i]
                    assert list(rep.terms) == list(terms)
                    assert same_bits(
                        [rep.lhs[s], rep.rhs[s], *(v[s] for v in
                                                   rep.terms.values()),
                         rep.normalizer[s], rep.relative_residual[s]],
                        [lhs, total, *terms.values(), normalizer, residual])

    def test_a_plan_of_nothing_observes_only_t(self, grid64):
        states = [random_smooth_state(grid64, seed=i) for i in range(3)]
        assert observe_states(states, COUPLED, (), 0, ()) == (
            [{"t": 0.0}] * 3, {})
        assert observe_one(states[0], COUPLED, (), 0, ()) == (
            {"t": 0.0}, {})

    @settings(max_examples=15, deadline=None)
    @given(n_points=st.sampled_from([32, 64, 256]),
           seed=st.integers(min_value=0, max_value=10_000),
           kmax=st.lists(st.integers(1, 10), min_size=2, max_size=5))
    def test_stacked_sweeps_equal_one_at_a_time(self, n_points, seed, kmax):
        # fields of different bands, so the stack holds several sizes m
        rng = np.random.default_rng(seed)
        fields = [random_smooth_field(make_grid(n_points), rng, kmax=k)
                  for k in kmax]
        pairs = list(zip(fields, fields[1:] + fields[:1]))
        for slack in (1e-10, -0.5):  # a negative slack makes pairs fail
            assert check_poincare_holder(fields, POINCARE_EXPONENTS,
                                         slack) == [
                check_poincare_holder([f], POINCARE_EXPONENTS, slack)[0]
                for f in fields]
        assert check_poincare_holder(fields, ()) == [[] for _ in fields]
        assert product_bound_violations(pairs, (1, 2, 3), 4, -math.inf) == [
            product_bound_violations([pair], (1, 2, 3), 4, -math.inf)[0]
            for pair in pairs]


def _group(ids, check):
    """The ids among `ids` that a check name stands for (H1 -> H1_MAIN, ...),
    by the earlier command-line route."""
    return [i for i in ids if i == check or i.startswith(check + "_")]


def _exact_ids(checks, n_max):
    """Exact identity ids behind the checks, by the earlier route."""
    ids = []
    for check in ("L2", "GEN_N", "H1", "H2"):
        if check not in checks:
            continue
        if check == "GEN_N":
            ids.extend(f"GEN_N({n})" for n in range(n_max + 1))
        else:
            ids.extend(_group(EXACT_IDENTITY_IDS, check))
    return ids


class TestCheckIdentities:
    SUBSETS = [[name for bit, name in enumerate(("L2", "GEN_N", "H1", "H2"))
                if mask >> bit & 1] for mask in range(16)]

    @pytest.mark.parametrize("n_max", range(9))
    def test_exact_ids_equal_the_earlier_route(self, n_max):
        for checks in self.SUBSETS:
            # other checks name no identity, and the order given is moot
            named = list(reversed(checks)) + ["POINCARE", "DECAY"]
            exact, _ = identities.check_identities(named, n_max, COUPLED)
            assert exact == _exact_ids(checks, n_max), (checks, n_max)

    def test_approx_ids_are_the_h2_ones_exactly_when_h2_is_named(self):
        h2 = _group(APPROX_IDENTITY_IDS, "H2")
        assert h2 == ["H2_MAIN", "H2_SUB(5.4)", "H2_SUB(5.5)", "H2_SUB(5.6)"]
        for checks in self.SUBSETS:
            for n_max in range(9):
                _, approx = identities.check_identities(checks, n_max,
                                                        COUPLED)
                assert approx == (h2 if "H2" in checks else []), checks

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_exactness_is_the_flag_of_each_definition(self, branch):
        for i in EXACT_IDENTITY_IDS + APPROX_IDENTITY_IDS:
            exact = identities._identity(i, BRANCHES[branch]).exact
            assert exact == (i in EXACT_IDENTITY_IDS), i

    def test_no_check_builds_no_definition(self, monkeypatch):
        # a sweep point observes the energy alone and names no check
        def forbidden(*args):
            raise AssertionError("a definition was built")

        for name in ("_identity", "_gen_n_identity", "_h1_identities",
                     "_h2_identities"):
            monkeypatch.setattr(identities, name, forbidden)
        assert identities.check_identities((), 4, COUPLED) == ([], [])

    def test_verify_config_ids(self):
        cfg = load_config(str(ROOT / "configs/verify.yaml"))
        exact, approx = identities.check_identities(cfg.checks, cfg.n_max,
                                                    COUPLED)
        assert exact == ["L2", *(f"GEN_N({n})" for n in range(5)), "H1_MAIN",
                         *(f"H1_SUB(4.{j})" for j in range(2, 6)),
                         "H2_SUB(5.2)", "H2_SUB(5.3)"]
        assert approx == ["H2_MAIN", *(f"H2_SUB(5.{j})" for j in (4, 5, 6))]

    def test_observe_guards_the_ids_of_the_zero_mean_checks(self, grid64):
        state = random_smooth_state(grid64, seed=5, amplitude=0.5)
        state = SimState(u=state.u, v=state.v, t=0.0, mean_u=0.0, mean_v=0.3)
        assert identities.ZERO_MEAN_CHECKS == ("H1", "H2")
        for i in EXACT_IDENTITY_IDS + APPROX_IDENTITY_IDS:
            if _group([i], "H1") or _group([i], "H2"):
                with pytest.raises(ValueError, match="zero means"):
                    reports_of(state, COUPLED, [i])
            else:
                assert list(reports_of(state, COUPLED, [i])) == [i]


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
        assert poincare_holder(g, 2, 2)
        assert check_poincare_holder([g], (2.0,)) == [[]]

    def test_constant_field_trivial(self, grid64):
        f = zeros(grid64)
        coeffs = f.coeffs.copy()
        coeffs[0] = 3.0
        constant = type(f)(grid64, coeffs)
        assert poincare_holder(constant, 4, 1)
        assert check_poincare_holder([constant], (4.0, 1.0)) == [[]]

    def test_infinity_norm_route(self, grid64):
        f = make_sine(grid64)
        assert lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-6)
        assert poincare_holder(f, math.inf, 1)
        assert (math.inf, 1.0) not in check_poincare_holder(
            [f], (1.0, math.inf))[0]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           p=st.sampled_from([1.0, 2.0, 4.0, math.inf]),
           q=st.sampled_from([1.0, 2.0, 4.0, math.inf]))
    def test_random_field_sweep(self, seed, p, q):
        grid = make_grid(64)
        rng = np.random.default_rng(seed)
        f = random_smooth_field(grid, rng, kmax=8)
        assert poincare_holder(f, p, q)
        assert (p, q) not in check_poincare_holder([f], (p, q))[0]

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
                    if not poincare_holder(f, p, q, slack=slack)]
        assert check_poincare_holder([f], POINCARE_EXPONENTS,
                                     slack=slack) == [expected]


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
        assert product_bound_violations([(u, v)]) == [[]]

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
        swept = product_bound_violations([(u, v)], n_values, d_max,
                                         -math.inf)[0]
        assert swept == [
            (n, alphas, betas,
             *product_bound_sides(u, v, alphas, betas))
            for n in n_values
            for alphas, betas in admissible_exponent_tuples(n, d_max)]
        # The replaced sweep forms every product on one padded size per
        # pair, so it agrees to round-off: at most 3.4 eps max(1, bound)
        # was seen over 3000 random pairs; the test allows 8.
        single_m = product_bound_reference.product_bound_violations(
            u, v, n_values, d_max, -math.inf)
        assert [case[:3] for case in single_m] == [case[:3] for case in swept]
        for (*_, lhs, bound), (*_, lhs_m, bound_m) in zip(swept, single_m):
            tol = 8 * np.finfo(float).eps * max(1.0, bound)
            assert abs(lhs - lhs_m) <= tol and abs(bound - bound_m) <= tol
        assert (product_bound_violations([(u, v)], n_values, d_max, 1e-10)[0]
                == product_bound_reference.product_bound_violations(
                    u, v, n_values, d_max, 1e-10))


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

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 1.0, 2.0 ** 1000])
    def test_a_window_within_rounding_is_refused(self, scale):
        # C = 16: kept values that differ by at most 16 eps of the largest
        # leave no resolved fit, whatever their scale
        eps = np.finfo(float).eps
        t = np.linspace(0.0, 1.0, 5)
        for spread in (0.0, 1.0, 16.0):
            series = self.make_series(t, scale * (1.0 - eps * spread * t))
            with pytest.raises(ValueError, match=r"window \(0\.0, 1\.0\) "
                               "leaves no resolved fit"):
                fit_decay_rate(series, "q", (0.0, 1.0), target_rate=-1.0)

    def test_a_window_past_rounding_is_fitted(self):
        eps = np.finfo(float).eps
        t = np.linspace(0.0, 1.0, 5)
        series = self.make_series(t, 1.0 - eps * 17.0 * t)
        fit = fit_decay_rate(series, "q", (0.0, 1.0), target_rate=-1.0)
        assert fit.fitted_rate == pytest.approx(-17.0 * eps, rel=0.1)
        # 2**-1000 (1 - 17 eps t): the values differ by 17 eps of the
        # largest, but their logarithms, near -693, take one value
        series = self.make_series(t, 2.0 ** -1000 * (1.0 - eps * 17.0 * t))
        assert len(set(np.log(series.columns["q"]).tolist())) == 1
        with pytest.raises(ValueError, match="leaves no finite fit"):
            fit_decay_rate(series, "q", (0.0, 1.0), target_rate=-1.0)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_rate_recovered_at_extreme_time_scales(self, scale):
        # the squares of these times underflow or overflow, which left the
        # polyfit route no finite fit
        u = np.linspace(1.0, 3.0, 41)
        series = self.make_series(scale * u, 2.0 * np.exp(-0.7 * u))
        fit = fit_decay_rate(series, "q", (scale, 3.0 * scale),
                             target_rate=-0.7 / scale)
        assert fit.n_points == 41
        assert fit.fitted_rate * scale == pytest.approx(-0.7, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 200), exponent=st.floats(-100.0, 100.0),
           start=st.floats(0.0, 1.0), offset=st.floats(-50.0, 50.0),
           rate=st.floats(-10.0, 10.0), noise=st.floats(-12.0, 0.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_agrees_with_the_polyfit_oracle(
            self, n, exponent, start, offset, rate, noise, seed):
        """n increasing times scale * (start + u), u in (0, 1], at a scale
        of 1e-100 to 1e100, and log q = offset + rate (start + u) plus
        Gaussian noise of 1e-12 to 1; every point clears the floor.

        Both fits are floating-point least squares of the same points, so
        each is within some eps of the exact line, on the scale of what it
        sums: the slope times the span on that of max|log q|, the intercept
        on that of max|log q| + |slope| max t, which it cancels. Over
        40,000 such draws the two fits differed by at most 15 and 22 eps
        on these scales; both are held to 64 eps. r^2 divides by ss_tot,
        the spread of log q: a rounding of eps max|log q| in each fitted
        value moves it by about eps max|log q| sqrt(n / ss_tot), and it is
        held to 64 eps times that, or to 64 eps if that is smaller (the
        draws reached 1.1 eps)."""
        rng = np.random.default_rng(seed)
        u = np.cumsum(rng.uniform(0.01, 1.0, n))
        u = start + u / u[-1]
        t = 10.0 ** exponent * u
        q = np.exp(offset + rate * u
                   + 10.0 ** noise * rng.standard_normal(n))
        series = self.make_series(t, q)
        window = (t[0], t[-1])
        ref = fit_reference.fit_decay_rate(series, "q", window, -1.0)
        fit = fit_decay_rate(series, "q", window, -1.0)
        assert fit.n_points == ref.n_points == n
        log_q = np.log(q)
        y_max = float(np.max(np.abs(log_q)))
        ss_tot = float(np.sum((log_q - np.mean(log_q)) ** 2))
        tol = 64 * np.finfo(float).eps
        assert (abs(fit.fitted_rate - ref.fitted_rate) * (t[-1] - t[0])
                <= tol * y_max)
        assert (abs(fit.intercept - ref.intercept)
                <= tol * (y_max + abs(ref.fitted_rate) * t[-1]))
        conditioning = (math.inf if ss_tot == 0.0
                        else y_max * math.sqrt(n / ss_tot))
        assert (abs(fit.r_squared - ref.r_squared)
                <= tol * max(1.0, conditioning))
