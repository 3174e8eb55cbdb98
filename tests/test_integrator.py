"""Time stepper: phi-coefficient accuracy, convergence, and run mechanics."""
from dataclasses import replace
import math
import warnings

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

from ggkdv import integrator as ti, model, spectral as sp
from ggkdv.config import build_initial_state, load_config
from ggkdv.model import random_smooth_state

from conftest import COUPLED, ROOT, UNCOUPLED, make_sine_state, per_state
from etd_reference import reference_march, reference_tables
import functionals_reference as fn
from linear_reference import linear_exact_solution
from step_grid_reference import loader_step_count
import step_reference


def random_state(grid, seed=5, amp=0.5, kmax=6):
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(2):
        c = np.zeros(grid.n_coeffs, dtype=np.complex128)
        kappa = np.arange(1, kmax + 1)
        c[1:kmax + 1] = (np.exp(-kappa)
                         * (rng.standard_normal(kmax)
                            + 1j * rng.standard_normal(kmax)))
        fields.append(sp.SpectralField(grid, c))
    u, v = fields
    peak = max(np.max(np.abs(u.samples())), np.max(np.abs(v.samples())))
    return model.SimState(u=(amp / peak) * u, v=(amp / peak) * v, t=0.0,
                          mean_u=0.0, mean_v=0.0)


class TestPhiCoefficients:
    # phi1 by the contour mean: q(z0) of (e^{z/2} - 1)/z is phi1(z0/2) / 2
    def test_phi1_contour_matches_taylor_near_zero(self):
        z = 1e-8j
        taylor = sum((z / 2) ** m / math.factorial(m + 1)
                     for m in range(64)) / 2
        q = ti.contour_phi_means(np.array([z]))[0][0]
        assert abs(q - taylor) < 1e-12

    def test_phi1_contour_matches_direct_formula_away_from_zero(self):
        for z in (3.0 + 2.0j, -5.0 + 40.0j, 0.5j):
            direct = (np.exp(z / 2) - 1.0) / (z / 2) / 2
            q = ti.contour_phi_means(np.array([z]))[0][0]
            assert abs(q - direct) < 1e-12 * max(1, abs(direct))

    def test_tables_mode_zero_limits(self, grid64, coeffs_coupled):
        dt = 0.01
        tb = reference_tables(grid64, coeffs_coupled, dt)
        assert tb.exp_full[:, 0] == pytest.approx(1.0, abs=1e-14)
        assert tb.exp_half[:, 0] == pytest.approx(1.0, abs=1e-14)
        assert tb.q[:, 0] == pytest.approx(dt / 2, abs=1e-15)
        for w in (tb.w1, tb.w2, tb.w3):
            assert w[:, 0] == pytest.approx(dt / 6, abs=1e-15)

    def test_tables_match_small_z_taylor(self, coeffs_coupled):
        # on a tiny grid with tiny dt every z is small; compare against the
        # series q ~ (dt/2) phi1(z/2), w1 ~ dt (1/6 + z/6 + ...), etc.
        grid = sp.make_grid(8)
        dt = 1e-5
        tb = reference_tables(grid, coeffs_coupled, dt)
        lam = model.linear_rates(grid, coeffs_coupled)
        z = lam * dt

        def series(coeff_fn):
            return np.array([[coeff_fn(zz) for zz in row] for row in z])

        phi1 = lambda zz: sum(zz ** m / math.factorial(m + 1) for m in range(20))
        q_expect = dt / 2 * series(lambda zz: phi1(zz / 2))
        np.testing.assert_allclose(tb.q, q_expect, rtol=0, atol=1e-14 * dt)

    @given(uncoupled=st.booleans(), n_points=st.sampled_from([8, 64, 256]),
           dt=st.sampled_from([1e-5, 2e-3, 0.05]))
    @settings(max_examples=20, deadline=None)
    def test_tables_are_reference_rows_on_kept_modes(self, uncoupled,
                                                     n_points, dt):
        # each row is the oracle's, sliced to the kept modes and times the
        # -i omega of the flux derivative (2 (-i omega) for w2)
        c = (model.validate_coefficients(model.CoefficientSet(
            a1=1.0, a2=0.0, a3=0.0, k=1.0)) if uncoupled else COUPLED)
        grid = sp.make_grid(n_points)
        ref = reference_tables(grid, c, dt)
        kept = grid.dealias_cutoff + 1
        ddx = -1j * (sp.TWO_PI * np.arange(kept))
        want = [ref.exp_full[:, :kept], ref.exp_half[:, :kept],
                ddx * ref.q[:, :kept], ddx * ref.w1[:, :kept],
                (2.0 * ddx) * ref.w2[:, :kept], ddx * ref.w3[:, :kept]]
        got = ti.build_tables(grid, c, dt)
        assert got.shape == (6, 2, kept)
        for row, expect in zip(got, want):
            np.testing.assert_array_equal(row, expect)

    def test_rejects_nonpositive_dt(self, grid64, coeffs_coupled):
        with pytest.raises(ValueError):
            ti.build_tables(grid64, coeffs_coupled, 0.0)


class TestLinearEvolution:
    def test_one_linear_step_is_exact_exponential(self, grid64, coeffs_coupled,
                                                  monkeypatch):
        # a zero flux leaves the linear part of the step alone
        monkeypatch.setattr(ti, "_bind_flux", lambda shape, grid, mix,
                            transforms: lambda w, out: out.fill(0.0))
        st = random_state(grid64)
        dt = 1e-3
        stepped = ti.evolve([st], [coeffs_coupled], dt,
                            dt)[0].meta["final_state"]
        exact = linear_exact_solution(st, coeffs_coupled, dt)
        np.testing.assert_allclose(stepped.u.coeffs, exact.u.coeffs, atol=1e-15)
        np.testing.assert_allclose(stepped.v.coeffs, exact.v.coeffs, atol=1e-15)

    def test_exact_solution_identity_and_semigroup(self, grid64, coeffs_coupled):
        st = random_state(grid64, seed=9)
        same = linear_exact_solution(st, coeffs_coupled, 0.0)
        # only the eigenbasis round trip (one factor of 1/sqrt 2) costs ulps
        np.testing.assert_allclose(same.u.coeffs, st.u.coeffs, atol=1e-15)
        two_hops = linear_exact_solution(
            linear_exact_solution(st, coeffs_coupled, 0.3),
            coeffs_coupled, 0.7)
        one_hop = linear_exact_solution(st, coeffs_coupled, 1.0)
        # tolerance reflects phase roundoff: |lambda| t ~ 1e5 radians
        np.testing.assert_allclose(two_hops.u.coeffs, one_hop.u.coeffs,
                                   atol=1e-11)

    def test_linear_decay_rate_is_exactly_k(self, grid64, coeffs_coupled):
        st = make_sine_state(grid64, amp=1.0)
        sol = linear_exact_solution(st, coeffs_coupled, 2.0)
        expect = np.exp(-2 * coeffs_coupled.k * 2.0) * fn.hs_seminorm_sq(st, 0)
        assert fn.hs_seminorm_sq(sol, 0) == pytest.approx(expect, rel=1e-12)


def rk4_reference(state, c, t_final, dt):
    """Classic RK4 on the full rhs; independent of the ETD machinery."""
    n_steps = int(round((t_final - state.t) / dt))
    grid, t = state.grid, state.t
    uv = np.stack([state.u.coeffs, state.v.coeffs])

    def slope(x):
        """(du, dv) coefficients of the state (u, v) = x."""
        return model.rhs([model.SimState(
            u=sp.SpectralField(grid, x[0]), v=sp.SpectralField(grid, x[1]),
            t=t, mean_u=state.mean_u, mean_v=state.mean_v)], c)[0]
    for _ in range(n_steps):
        k1 = slope(uv)
        k2 = slope(uv + (dt / 2) * k1)
        k3 = slope(uv + (dt / 2) * k2)
        k4 = slope(uv + dt * k3)
        uv = uv + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return model.SimState(u=sp.SpectralField(grid, uv[0]),
                          v=sp.SpectralField(grid, uv[1]), t=t,
                          mean_u=state.mean_u, mean_v=state.mean_v)


class TestNonlinearAccuracy:
    def test_agrees_with_independent_rk4_oracle(self, coeffs_coupled):
        # small grid so the explicit reference is stable with a modest step
        grid = sp.make_grid(32)
        st = random_state(grid, seed=2, amp=0.5, kmax=3)
        t_final = 0.005
        series = ti.evolve([st], [coeffs_coupled], t_final, dt=1e-5)[0]
        etd = series.meta["final_state"]
        ref = rk4_reference(st, coeffs_coupled, t_final, dt=2e-6)
        err = np.max(np.abs(etd.u.coeffs - ref.u.coeffs))
        assert err < 2e-9  # bounded by the reference's own phase error

    def test_one_step_local_order_five(self, coeffs_coupled):
        # nonstiff regime (|lambda| dt < 1) so the classical order shows;
        # at dispersive |lambda| dt >> 1 the constants are much larger
        grid = sp.make_grid(16)
        st = random_state(grid, seed=7, amp=0.5, kmax=4)

        def defect(dt):
            coarse = ti.evolve([st], [coeffs_coupled], dt,
                               dt)[0].meta["final_state"]
            fine = ti.evolve([st], [coeffs_coupled], dt,
                             dt / 64)[0].meta["final_state"]
            return np.max(np.abs(coarse.u.coeffs - fine.u.coeffs))

        d1, d2 = defect(4e-5), defect(2e-5)
        order = np.log2(d1 / d2)
        assert order == pytest.approx(5.0, abs=0.5)


class TestEvolveMechanics:
    def test_observer_sampling_and_stride(self, grid64, coeffs_coupled):
        st = make_sine_state(grid64, amp=0.1)
        series = ti.evolve([st], [coeffs_coupled], 0.1, dt=1e-3, stride=20,
                           observer=per_state(lambda _, s: {
                               "e": fn.energy(s, coeffs_coupled)}))[0]
        assert len(series.t) == 6  # t = 0 plus 5 interior observations
        np.testing.assert_allclose(np.diff(series.t), 0.02, atol=1e-12)
        # (1/2)(int (0.1 sin)^2 + int (0.1 cos)^2) = 0.1^2 / 2
        assert series["e"][0] == pytest.approx(0.005, rel=1e-10)

    def test_mean_mode_never_drifts(self, grid64, coeffs_coupled):
        st = make_sine_state(grid64, amp=0.8, mean_u=0.5, mean_v=-0.25)
        series = ti.evolve([st], [coeffs_coupled], 0.2, dt=1e-3, stride=10)[0]
        assert series.meta["max_mean_drift"] == 0.0
        final = series.meta["final_state"]
        assert final.u.coeffs[0] == 0.0
        assert final.mean_u == 0.5

    def test_determinism(self, grid64, coeffs_coupled):
        st = random_state(grid64, seed=3)
        obs = per_state(lambda _, s: {"e": fn.energy(s, coeffs_coupled)})
        s1 = ti.evolve([st], [coeffs_coupled], 0.05, dt=1e-3, observer=obs)[0]
        s2 = ti.evolve([st], [coeffs_coupled], 0.05, dt=1e-3, observer=obs)[0]
        np.testing.assert_array_equal(s1["e"], s2["e"])
        np.testing.assert_array_equal(
            s1.meta["final_state"].u.coeffs, s2.meta["final_state"].u.coeffs)

    def test_blow_up_reports_first_bad_time(self, grid64, coeffs_coupled):
        # a wildly oversized step: the stage nonlinearity compounds until the
        # coefficients overflow to non-finite values within a few steps
        st = make_sine_state(grid64, amp=500.0)
        with pytest.raises(ti.BlowUpError) as err:
            ti.evolve([st], [coeffs_coupled], 100.0, dt=10.0)[0]
        assert 0 < err.value.time <= 100.0

    def test_step_divisibility_enforced(self, grid64, coeffs_coupled):
        st = make_sine_state(grid64)
        with pytest.raises(ValueError):
            ti.evolve([st], [coeffs_coupled], 0.05, dt=0.002, stride=7)
        with pytest.raises(ValueError):
            ti.evolve([st], [coeffs_coupled], 0.0011, dt=1e-3)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def step_grids(draw):
    """(t_final, dt, stride): free draws, whole multiples of dt (often of
    whole strides), and multiples nudged by up to 1e-8 relative."""
    dt, stride = draw(POSITIVE), draw(st.integers(1, 1000))
    how = draw(st.sampled_from(["free", "tiled", "nudged"]))
    if how == "free":
        return draw(POSITIVE), dt, stride
    n_steps = draw(st.integers(1, 10 ** 6))
    if draw(st.booleans()):
        n_steps *= stride
    t_final = n_steps * dt
    if how == "nudged":
        t_final *= 1.0 + draw(st.floats(-1e-8, 1e-8))
    assume(0.0 < t_final < math.inf)
    return t_final, dt, stride


class TestStepCount:
    """`step_count` is the one tiling rule; the loader's old arithmetic,
    kept in `step_grid_reference`, is its oracle below 2**53 steps."""

    @settings(max_examples=500, deadline=None)
    @given(step_grids())
    @example((1.0, 1e-320, 1))  # the ratio overflows
    @example((1e308, 1e-10, 1))
    @example((5e-324, 5e-324, 1))
    @example((0.05, 0.002, 7))
    @example((0.5, 0.01, 10))
    # marches the loader's arithmetic accepted and never ended: the default
    # steps at N = 32, a3 = 0.5 of a 0.2 span in strides of 10**18 and of a
    # 1e14 span, and an explicit 1e-10 over 1e6
    @example((0.2, 2.0000000000000002e-19, 10 ** 18))
    @example((1e14, 0.0026525823848649226, 1))
    @example((1e6, 1e-10, 1))
    def test_accepts_and_refuses_as_the_loader_did(self, grid):
        t_final, dt, stride = grid
        want = loader_step_count(t_final, dt, stride)
        if want is not None and want >= 2 ** 53:
            want = None  # round(t_final / dt) cannot tell counts apart
        try:
            got = ti.step_count(t_final, dt, stride)
        except ValueError:
            got = None
        assert got == want

    @pytest.mark.parametrize("stride", [0, -3])
    def test_refuses_a_stride_below_one(self, stride):
        with pytest.raises(ValueError):
            ti.step_count(1.0, 0.1, stride)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1e-3, 1e-320])
    def test_evolve_refuses_a_dt_that_does_not_tile(self, grid64,
                                                    coeffs_coupled, dt):
        st_ = make_sine_state(grid64)
        with pytest.raises(ValueError):
            ti.evolve([st_], [coeffs_coupled], 0.01, dt=dt)

    def test_evolve_refuses_a_zero_span(self, grid64, coeffs_coupled):
        st_ = make_sine_state(grid64)
        with pytest.raises(ValueError):
            ti.evolve([st_], [coeffs_coupled], st_.t, dt=1e-3)


class TestDecayLaw:
    def test_l2_energy_follows_exact_exponential(self, grid128, coeffs_coupled):
        # the dealiased nonlinearity is L2-orthogonal to the state, so the
        # quadratic decay law holds to time-discretization error only
        st = random_state(grid128, seed=1, amp=0.3, kmax=8)
        obs = per_state(lambda _, s: {"l2": fn.hs_seminorm_sq(s, 0)})
        series = ti.evolve([st], [coeffs_coupled], 0.5, dt=1e-4, stride=500,
                           observer=obs)[0]
        initial = series["l2"][0]
        expect = initial * np.exp(-2 * coeffs_coupled.k * series.t)
        assert np.max(np.abs(series["l2"] - expect)) <= 1e-7 * initial


def light_observer(c):
    def observe(s):
        return {"t": s.t, "energy": fn.energy(s, c),
                "h1": fn.hs_seminorm_sq(s, 1)}
    return observe


def state_observer(c):
    """light_observer's columns plus the observed coefficients (u, v)."""
    def observe(s):
        return {**light_observer(c)(s),
                "uv": np.concatenate([s.u.coeffs, s.v.coeffs])}
    return observe


def assert_member_equals_lone_march(run, i, state, c, t_final, dt,
                                    stride=1):
    """Member i of a batched run is bitwise its lone march."""
    alone = ti.evolve([state], [c], t_final, dt, stride=stride,
                      observer=per_state(
                          lambda _, s: state_observer(c)(s)))
    got, want = run.members[i], alone.members[0]
    if isinstance(want, ti.BlowUpError):
        assert isinstance(got, ti.BlowUpError)
        assert got.time == want.time
        return
    assert isinstance(got, ti.DiagnosticSeries)
    np.testing.assert_array_equal(got.t, want.t)
    for key in want.columns:
        np.testing.assert_array_equal(got[key], want[key])
    for field in ("u", "v"):
        np.testing.assert_array_equal(
            getattr(got.meta["final_state"], field).coeffs,
            getattr(want.meta["final_state"], field).coeffs)


# The stepper forms the nonlinear term in the eigenbasis from (pp, mm, pm)
# where the serial reference forms it in (u, v) from (uu, vv, uv), so the two
# round differently. Observed coefficients may differ by at most
# REFERENCE_ULPS * eps * max|w| * n_steps, where max|w| is the largest
# coefficient the reference observes and n_steps the steps marched so far.
# The largest ratio seen over 600 random members of `ensembles()` was 0.33.
REFERENCE_ULPS = 4.0


def assert_member_near_reference(run, i, state, c, t_final, dt, stride=1):
    """Member i of a batched run stays within the stated bound of the
    serial reference march, observing at the same times."""
    try:
        times, rows, _ = reference_march(state, c, t_final, dt,
                                         state_observer(c), stride)
    except ti.BlowUpError as err:
        assert isinstance(run.members[i], ti.BlowUpError)
        assert run.members[i].time == err.time
        return
    series = run[i]
    np.testing.assert_array_equal(series.t, times)
    want = np.array([r["uv"] for r in rows])
    n_steps = stride * np.arange(len(rows))[:, None]
    bound = (REFERENCE_ULPS * np.finfo(float).eps * np.max(np.abs(want))
             * n_steps)
    assert np.all(np.abs(series["uv"] - want) <= bound)


def assert_ensemble_near_reference(members):
    """Each member of a batched march stays within the stated bound of its
    serial reference march."""
    states = [m[0] for m in members]
    coeffs = [m[1] for m in members]
    dt, stride, t_final = 1e-3, 4, 12e-3
    run = ti.evolve(states, coeffs, t_final, dt, stride=stride,
                    observer=per_state(
                        lambda i, s: state_observer(coeffs[i])(s)))
    for i, (state, c) in enumerate(members):
        assert_member_near_reference(run, i, state, c, t_final, dt, stride)


@st.composite
def ensemble_member(draw, grid):
    k = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        # a1 = a2 = 1 branch, 0 < |a3| < 1
        a3 = draw(st.floats(0.05, 0.9)) * draw(st.sampled_from((-1.0, 1.0)))
        coeffs = model.CoefficientSet(a1=1.0, a2=1.0, a3=a3, k=k)
    else:
        # a3 = 0 branch: (a1, a2) on the circle a1^2 + a2^2 = a1 + a2
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        coeffs = model.CoefficientSet(a1=0.5 + math.cos(theta) / math.sqrt(2),
                                      a2=0.5 + math.sin(theta) / math.sqrt(2),
                                      a3=0.0, k=k)
    state = random_smooth_state(grid, seed=draw(st.integers(0, 10 ** 6)),
                                amplitude=draw(st.floats(0.01, 1.0)),
                                kmax=min(8, grid.dealias_cutoff))
    if draw(st.booleans()):
        state = model.SimState(u=state.u, v=state.v, t=0.0,
                               mean_u=draw(st.floats(-1.0, 1.0)),
                               mean_v=draw(st.floats(-1.0, 1.0)))
    return state, model.validate_coefficients(coeffs)


@st.composite
def ensembles(draw, sizes=(16, 32, 64), max_members=4):
    grid = sp.make_grid(draw(st.sampled_from(sizes)))
    return draw(st.lists(ensemble_member(grid), min_size=1,
                         max_size=max_members))


def count_fft_calls(monkeypatch) -> dict:
    """Counts of pocketfft's rfft and irfft calls from here on: the gufuncs
    that `model._bind_flux` binds on its FFT route, and that numpy's rfft
    and irfft call, patched where a flux bound from here on looks them up."""
    pocketfft = np.fft._pocketfft_umath
    calls = {"rfft": 0, "irfft": 0}
    for name, attr in (("rfft", "rfft_n_even"), ("irfft", "irfft")):
        original = getattr(pocketfft, attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(pocketfft, attr, counted)
    return calls


class TestEnsembleOracle:
    """The batched march against lone marches and the serial reference."""

    # a mixed ensemble on the FFT route: its uncoupled member reads w-, so
    # the coupled one marches both branches, and alone w+ only
    @example([(random_smooth_state(sp.make_grid(128), seed=i, amplitude=0.5),
               c) for i, c in enumerate((COUPLED, UNCOUPLED))])
    @settings(max_examples=40, deadline=None)
    @given(ensembles(sizes=(16, 32, 64, 128, 256), max_members=5))
    def test_members_equal_lone_marches_bitwise(self, members):
        states = [m[0] for m in members]
        coeffs = [m[1] for m in members]
        dt, stride, t_final = 1e-3, 4, 12e-3
        run = ti.evolve(states, coeffs, t_final, dt, stride=stride,
                        observer=per_state(
                            lambda i, s: state_observer(coeffs[i])(s)))
        for i, (state, c) in enumerate(members):
            assert_member_equals_lone_march(run, i, state, c, t_final, dt,
                                            stride)

    @settings(max_examples=50, deadline=None)
    @given(ensembles())
    def test_batched_matches_serial_reference_within_bound(self, members):
        assert_ensemble_near_reference(members)

    @settings(max_examples=10, deadline=None)
    @given(ensembles(sizes=(model.MATMUL_MAX_POINTS + 2, 128, 256)))
    def test_fft_route_matches_serial_reference_within_bound(self, members):
        # grids above the matmul route's threshold, and 128, the grid of
        # configs/decay.yaml
        assert_ensemble_near_reference(members)

    @settings(max_examples=25, deadline=None)
    @given(ensembles(sizes=(16, 32, 64, 128, 256), max_members=3))
    def test_observed_modes_zero_at_mean_and_above_cutoff(self, members):
        kept = members[0][0].grid.dealias_cutoff + 1
        seen = []
        run = ti.evolve([m[0] for m in members], [m[1] for m in members],
                        12e-3, 1e-3, stride=3,
                        observer=per_state(
                            lambda _, s: seen.append(s) or {}))
        assert not any(isinstance(m, ti.BlowUpError) for m in run.members)
        assert len(seen) == 5 * len(members)
        for s in seen:
            for coeffs in (s.u.coeffs, s.v.coeffs):
                assert coeffs[0] == 0.0
                assert not np.any(coeffs[kept:])

    @pytest.mark.parametrize("n_members", [1, 3, 5])
    def test_one_step_is_one_fft_pair_per_stage(self, monkeypatch,
                                                coeffs_coupled, n_members):
        # the smallest grid above the matmul route's threshold
        grid = sp.make_grid(model.MATMUL_MAX_POINTS + 2)
        states = [random_smooth_state(grid, seed=i, amplitude=0.3)
                  for i in range(n_members)]
        calls = count_fft_calls(monkeypatch)
        ti.evolve(states, [coeffs_coupled] * n_members, 1e-3, 1e-3)
        assert calls == {"rfft": 4, "irfft": 4}

    @pytest.mark.parametrize("n_members", [1, 3])
    def test_the_fft_route_calls_no_numpy_fft_wrapper(
            self, monkeypatch, coeffs_coupled, coeffs_uncoupled, n_members):
        # the bound flux calls pocketfft's gufuncs itself: with np.fft's
        # rfft and irfft refusing every call, a flux and a march at N=256
        # still run, bitwise as before
        grid = sp.make_grid(256)
        kept = grid.dealias_cutoff + 1
        members = [(random_smooth_state(grid, seed=i, amplitude=0.3),
                    (coeffs_coupled, coeffs_uncoupled)[i % 2])
                   for i in range(n_members)]
        states = [m[0] for m in members]
        coeffs = [m[1] for m in members]
        w = np.stack([model._rotate(np.stack([s.u.coeffs, s.v.coeffs])
                                    [:, :kept]) for s in states])
        mix = np.stack([model.eigen_mixing(s, c) for s, c in members])
        want = step_reference.nonlinear_remainder(w, mix, grid)
        lone = ti.evolve(states, coeffs, 4e-3, 1e-3)

        def refuse(*args, **kwargs):
            raise AssertionError("the flux called np.fft's wrapper")
        monkeypatch.setattr(np.fft, "rfft", refuse)
        monkeypatch.setattr(np.fft, "irfft", refuse)
        # the flux takes the rows of the branches it transforms, and leaves
        # the others alone: a lone coupled member transforms w+ only
        branches = model._branches(mix)
        assert branches == (1 if n_members == 1 else 2)
        got = np.zeros_like(w)
        model._bind_flux(w.shape, grid, mix)(w[:, :branches],
                                             got[:, :branches])
        np.testing.assert_array_equal(got, want)
        run = ti.evolve(states, coeffs, 4e-3, 1e-3)
        for series, alone in zip(run.members, lone.members):
            for name in ("u", "v"):
                np.testing.assert_array_equal(
                    getattr(series.meta["final_state"], name).coeffs,
                    getattr(alone.meta["final_state"], name).coeffs)

    @pytest.mark.parametrize("n_members", [1, 3, 5])
    def test_one_step_is_one_matmul_pair_per_stage_on_small_grids(
            self, monkeypatch, grid64, coeffs_coupled, n_members):
        states = [random_smooth_state(grid64, seed=i, amplitude=0.3)
                  for i in range(n_members)]
        calls = count_fft_calls(monkeypatch)
        calls.update(synth=0, anal=0)

        def counted(matrix, name):
            class Counted(np.ndarray):
                def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                    calls[name] += ufunc is np.matmul
                    return getattr(ufunc, method)(
                        *(np.asarray(x) for x in inputs), **kwargs)
            return matrix.view(Counted)

        monkeypatch.setattr(
            ti, "flux_transforms", lambda grid: tuple(
                counted(matrix, name) for matrix, name in zip(
                    model.flux_transforms(grid), ("synth", "anal"))))
        ti.evolve(states, [coeffs_coupled] * n_members, 1e-3, 1e-3)
        assert calls == {"rfft": 0, "irfft": 0, "synth": 4, "anal": 4}

    # Ensembles whose members times n^2 exceed 8 x MATMUL_MAX_POINTS^2,
    # where a route chosen by load would leave the matmuls: the grid alone
    # picks it.
    LARGE_ENSEMBLES = [(64, 33), (model.MATMUL_MAX_POINTS, 9)]

    @pytest.mark.parametrize("n_points, n_members", LARGE_ENSEMBLES)
    def test_large_ensemble_on_a_small_grid_makes_no_fft_call(
            self, monkeypatch, coeffs_coupled, n_points, n_members):
        grid = sp.make_grid(n_points)
        states = [random_smooth_state(grid, seed=i, amplitude=0.3)
                  for i in range(n_members)]
        calls = count_fft_calls(monkeypatch)
        ti.evolve(states, [coeffs_coupled] * n_members, 1e-3, 1e-3)
        assert calls == {"rfft": 0, "irfft": 0}

    @pytest.mark.parametrize("n_points, n_members", LARGE_ENSEMBLES)
    def test_large_ensemble_members_equal_lone_marches_bitwise(
            self, coeffs_coupled, coeffs_uncoupled, n_points, n_members):
        grid = sp.make_grid(n_points)
        members = [(random_smooth_state(grid, seed=i, amplitude=0.3),
                    (coeffs_coupled, coeffs_uncoupled)[i % 2])
                   for i in range(n_members)]
        states = [m[0] for m in members]
        coeffs = [m[1] for m in members]
        dt, stride, t_final = 1e-3, 4, 12e-3
        run = ti.evolve(states, coeffs, t_final, dt, stride=stride,
                        observer=per_state(
                            lambda i, s: state_observer(coeffs[i])(s)))
        for i, (state, c) in enumerate(members):
            assert_member_equals_lone_march(run, i, state, c, t_final, dt,
                                            stride)
            assert_member_near_reference(run, i, state, c, t_final, dt,
                                         stride)

    def test_decay_sweep_members_equal_lone_marches_bitwise(self):
        # the ensemble of `gg sweep configs/decay.yaml --axis
        # k=0.25,0.5,1.0`, on the FFT route its 128-point grid takes
        cfg = load_config(str(ROOT / "configs/decay.yaml"))
        assert model.flux_transforms(sp.make_grid(cfg.n_points)) is None
        state = build_initial_state(cfg)
        coeffs = [model.validate_coefficients(replace(cfg.coefficients, k=k))
                  for k in (0.25, 0.5, 1.0)]
        dt, stride, t_final = cfg.resolved_dt(), 50, 1.0
        run = ti.evolve([state] * 3, coeffs, t_final, dt, stride=stride,
                        observer=per_state(
                            lambda i, s: state_observer(coeffs[i])(s)))
        for i, c in enumerate(coeffs):
            assert_member_equals_lone_march(run, i, state, c, t_final, dt,
                                            stride)

    def test_blown_up_member_leaves_the_others_unchanged(self, grid64,
                                                        coeffs_coupled):
        calm = random_smooth_state(grid64, seed=1, amplitude=0.3)
        wild = make_sine_state(grid64, amp=500.0)
        other = model.validate_coefficients(
            model.CoefficientSet(a1=1.0, a2=0.0, a3=0.0, k=0.5))
        members = [(calm, coeffs_coupled), (wild, coeffs_coupled),
                   (calm, other)]
        dt, t_final = 1e-3, 0.05
        run = ti.evolve([m[0] for m in members], [m[1] for m in members],
                        t_final, dt, stride=5,
                        observer=per_state(lambda i, s: state_observer(
                            members[i][1])(s)))
        assert isinstance(run.members[1], ti.BlowUpError)
        with pytest.raises(ti.BlowUpError):
            run[1]
        alone = ti.evolve([wild], [coeffs_coupled], t_final, dt)
        assert run.members[1].time == alone.members[0].time < t_final
        for i, (state, c) in enumerate(members):
            assert_member_equals_lone_march(run, i, state, c, t_final, dt, 5)
            assert_member_near_reference(run, i, state, c, t_final, dt, 5)

    def test_members_must_share_grid_and_start(self, grid64, coeffs_coupled):
        a = make_sine_state(grid64)
        b = make_sine_state(sp.make_grid(32))
        with pytest.raises(ValueError):
            ti.evolve([a, b], [coeffs_coupled] * 2, 0.01, 1e-3)
        with pytest.raises(ValueError):
            ti.evolve([a], [coeffs_coupled] * 2, 0.01, 1e-3)

    def test_steps_meta_counts_member_steps(self, grid64, coeffs_coupled):
        states = [make_sine_state(grid64)] * 3
        run = ti.evolve(states, [coeffs_coupled] * 3, 0.01, 1e-3)
        assert run.meta["n_steps"] == 30
        assert all(run[i].meta["n_steps"] == 10 for i in range(3))


class TestInPlaceStep:
    """The step `_bind_step` binds, reused, against the allocating step and
    the unbound in-place step of `step_reference`, and the march's bound
    step and error state."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 128).map(lambda half: sp.make_grid(2 * half))
           .flatmap(lambda grid: st.lists(ensemble_member(grid), min_size=1,
                                          max_size=5)),
           st.booleans(), st.sampled_from([1e-3, 1e-2]))
    def test_in_place_step_equals_the_allocating_step(self, members, fft,
                                                      dt):
        grid = members[0][0].grid
        kept = grid.dealias_cutoff + 1
        tables = tuple(np.stack([ti.build_tables(grid, c, dt)
                                 for _, c in members], axis=1))
        mix = np.stack([model.eigen_mixing(s, c) for s, c in members])
        transforms = None if fft else model.flux_transforms(grid)
        want = model._rotate(np.stack([
            np.stack([s.u.coeffs[:kept], s.v.coeffs[:kept]])
            for s, _ in members]))
        w, unbound = want.copy(), want.copy()
        step = ti._bind_step(w, tables, mix, grid, transforms)
        stages = np.empty((9,) + unbound.shape, dtype=np.complex128)
        for _ in range(2):  # the second step reuses every stage
            want = step_reference.step(want, tables, mix, grid, transforms)
            step()
            np.testing.assert_array_equal(w, want)
            step_reference.in_place_step(unbound, tables, mix, grid,
                                         transforms, stages)
            np.testing.assert_array_equal(unbound, want)

    @pytest.mark.parametrize("n_points", [64, 128])  # matmul, FFT route
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_no_input_of_a_step_overlaps_its_output_but_in_place(
            self, monkeypatch, coeffs_coupled, n_points, n_members):
        # an input whose bounds meet the output's (np.may_share_memory),
        # unless it is the output itself, sends numpy down its slower
        # overlap-safe path; a bound step makes no such call
        grid = sp.make_grid(n_points)
        kept = grid.dealias_cutoff + 1
        states = [random_smooth_state(grid, seed=i, amplitude=0.3)
                  for i in range(n_members)]
        w = np.stack([model._rotate(np.stack([s.u.coeffs, s.v.coeffs])
                                    [:, :kept]) for s in states])
        tables = tuple(np.stack([ti.build_tables(grid, coeffs_coupled, 1e-3)]
                                * n_members, axis=1))
        mix = np.stack([model.eigen_mixing(s, coeffs_coupled)
                        for s in states])
        transforms = model.flux_transforms(grid)
        calls = dict.fromkeys(("add", "multiply", "subtract", "matmul",
                               "irfft", "rfft_n_even"), 0)
        overlaps = []

        def is_out(x, out):
            return (isinstance(x, np.ndarray) and x.shape == out.shape
                    and x.strides == out.strides
                    and x.__array_interface__["data"]
                    == out.__array_interface__["data"])

        def guarded(name, ufunc):
            def call(*args):  # every `out` of a bound step is positional
                inputs, out = args[:ufunc.nin], args[ufunc.nin]
                calls[name] += 1
                overlaps.extend(name for x in inputs if not is_out(x, out)
                                and np.may_share_memory(x, out))
                return ufunc(*args)
            return call

        pocketfft = np.fft._pocketfft_umath
        for module, names in ((np, ("add", "multiply", "subtract", "matmul")),
                              (pocketfft, ("irfft", "rfft_n_even"))):
            for name in names:
                monkeypatch.setattr(module, name,
                                    guarded(name, getattr(module, name)))
        step = ti._bind_step(w, tables, mix, grid, transforms)
        step()
        fft = 0 if transforms else 4
        assert (calls["matmul"], calls["irfft"],
                calls["rfft_n_even"]) == (12 - 2 * fft, fft, fft)
        assert overlaps == []

    def test_a_march_binds_one_step_per_ensemble(
            self, monkeypatch, grid64, coeffs_coupled):
        built = []

        bind = ti._bind_step

        def counted(w, *args):
            built.append(len(w))
            return bind(w, *args)
        monkeypatch.setattr(ti, "_bind_step", counted)
        calm = random_smooth_state(grid64, seed=1, amplitude=0.3)
        wild = make_sine_state(grid64, amp=500.0)
        ti.evolve([calm, calm], [coeffs_coupled] * 2, 0.05, 1e-3)
        assert built == [2]
        built.clear()  # one member blows up: the other two march on
        run = ti.evolve([calm, wild, calm], [coeffs_coupled] * 3, 0.05, 1e-3)
        assert isinstance(run.members[1], ti.BlowUpError)
        assert built == [3, 2]
        built.clear()  # every member blows up: nothing is left to rebuild
        run = ti.evolve([wild], [coeffs_coupled], 0.05, 1e-3)
        assert isinstance(run.members[0], ti.BlowUpError)
        assert built == [1]

    def test_a_member_blown_up_mid_block_loses_its_pending_rows(
            self, grid64, coeffs_coupled):
        calm = random_smooth_state(grid64, seed=1, amplitude=0.3)
        wild = make_sine_state(grid64, amp=500.0)
        seen = [[], [], []]  # the times each member's observer got
        dt, t_final = 1e-3, 0.01

        def observer(i, s):
            seen[i].append(s.t)
            return state_observer(coeffs_coupled)(s)
        run = ti.evolve([calm, wild, calm], [coeffs_coupled] * 3, t_final,
                        dt, observer=per_state(observer))
        sampled = round(run.members[1].time / dt)  # steps 0 .. sampled - 1
        assert sampled % ti.OBSERVE_BLOCK  # a block was still pending
        assert seen[1] == [n * dt for n in range(
            sampled - sampled % ti.OBSERVE_BLOCK)]
        for i in (0, 2):
            assert seen[i] == [n * dt for n in range(11)]
            assert_member_equals_lone_march(run, i, calm, coeffs_coupled,
                                            t_final, dt)

    def test_the_drift_check_fires_at_the_drifting_state(
            self, monkeypatch, grid64, coeffs_coupled):
        bind, steps = ti._bind_step, []

        def drifting(w, *args):
            step = bind(w, *args)

            def drift():
                step()
                steps.append(None)
                if len(steps) == 5:
                    w[..., 0] = 1e-3
            return drift

        monkeypatch.setattr(ti, "_bind_step", drifting)
        calm = random_smooth_state(grid64, seed=1, amplitude=0.3)
        seen = []
        with pytest.raises(RuntimeError, match=r"mean drifted to 1\.414e-03 "
                           r"at t = 0\.005$"):
            ti.evolve([calm], [coeffs_coupled], 0.01, 1e-3,
                      observer=per_state(lambda i, s: seen.append(s.t) or {}))
        assert seen == [n * 1e-3 for n in range(4)]

    def test_a_table_that_leaks_into_the_mean_is_caught(
            self, monkeypatch, grid64, coeffs_coupled):
        # the flux's mean reaches mode 0 through the w1 row: the first
        # sampled state after t = 0 has drifted, and the march stops there
        build = ti.build_tables

        def leaky(*args):
            t = build(*args)
            t[3][:, 0] += 1e-3
            return t
        monkeypatch.setattr(ti, "build_tables", leaky)
        calm = random_smooth_state(grid64, seed=1, amplitude=0.3)
        seen = []
        with pytest.raises(RuntimeError, match=r"mean drifted to \S+ at "
                           r"t = 0\.005$"):
            ti.evolve([calm], [coeffs_coupled], 0.01, 1e-3, stride=5,
                      observer=per_state(lambda i, s: seen.append(s.t) or {}))
        assert seen == []  # t = 0 was still waiting for its block

    @pytest.mark.parametrize("caller", [  # numpy's defaults, and raising
        dict(divide="warn", over="warn", under="ignore", invalid="warn"),
        dict(divide="raise", over="raise", under="ignore", invalid="raise")])
    def test_evolve_restores_the_error_state(self, monkeypatch, grid64,
                                             coeffs_coupled, caller):
        calm = random_smooth_state(grid64, seed=1, amplitude=0.3)
        wild = make_sine_state(grid64, amp=500.0)
        bind = ti._bind_step

        def drifting(w, *args):
            step = bind(w, *args)

            def drift():
                step()
                w[..., 0] = 1e-3
            return drift

        with np.errstate(**caller):
            before = np.geterr()
            seen = []  # the observer runs under the caller's error state
            ti.evolve([calm], [coeffs_coupled], 0.01, 1e-3, stride=5,
                      observer=per_state(
                          lambda i, s: seen.append(np.geterr()) or {}))
            assert seen == [before] * 3 and np.geterr() == before
            # overflow in the march is neither warned of nor raised
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run = ti.evolve([wild], [coeffs_coupled], 0.05, 1e-3,
                                stride=50)
            assert isinstance(run.members[0], ti.BlowUpError)
            assert not caught
            assert np.geterr() == before
            monkeypatch.setattr(ti, "_bind_step", drifting)
            with pytest.raises(RuntimeError, match="mean drifted"):
                ti.evolve([calm], [coeffs_coupled], 0.01, 1e-3, stride=2)
            assert np.geterr() == before


class TestLinearMinusBranch:
    """On a1 = a2 = 1 with zero means F- is exactly zero, so w- marches as
    the exact linear w-: n steps multiply it by exp_full n times."""

    N_STEPS = 20

    @staticmethod
    def coupled_ensemble(n_points, minus_scale=1.0):
        """Grid, state w, tables and mix of two coupled zero-mean members,
        their w- scaled by `minus_scale`."""
        grid = sp.make_grid(n_points)
        kept = grid.dealias_cutoff + 1
        coeffs = [COUPLED, model.validate_coefficients(
            model.CoefficientSet(a1=1.0, a2=1.0, a3=-0.7, k=0.25))]
        states = [random_smooth_state(grid, seed=i, amplitude=0.5)
                  for i in range(2)]
        w = np.stack([model._rotate(np.stack([s.u.coeffs, s.v.coeffs])
                                    [:, :kept]) for s in states])
        w[:, 1] *= minus_scale
        tables = tuple(np.stack([ti.build_tables(grid, c, 1e-3)
                                 for c in coeffs], axis=1))
        mix = np.stack([model.eigen_mixing(s, c)
                        for s, c in zip(states, coeffs)])
        return grid, w, tables, mix

    def march(self, w, tables, mix, grid, transforms):
        """w marched N_STEPS in place, and w multiplied N_STEPS times by
        exp_full, whole, as the step multiplies it."""
        linear = w.copy()
        step = ti._bind_step(w, tables, mix, grid, transforms)
        for _ in range(self.N_STEPS):
            step()
            np.multiply(tables[0], linear, linear)
        return linear

    # both routes: the matmul route transforms both branches, and its F-
    # is exactly zero too
    @pytest.mark.parametrize("n_points", [64, model.MATMUL_MAX_POINTS + 2,
                                          128, 256])
    def test_w_minus_is_exp_full_applied_n_times_bitwise(self, n_points):
        grid, w, tables, mix = self.coupled_ensemble(n_points)
        transforms = model.flux_transforms(grid)
        assert model._branches(mix, transforms) == (2 if transforms else 1)
        linear = self.march(w, tables, mix, grid, transforms)
        np.testing.assert_array_equal(w[:, 1], linear[:, 1])
        assert not np.array_equal(w[:, 0], linear[:, 0])  # w+ is not linear

    def test_a_w_minus_past_overflow_marches_on_as_the_linear_w_minus(self):
        # m^2 overflows: a two-branch flux times it by an exact zero, which
        # gives NaN, and blows up; the one-branch flux never forms it, and
        # w+ marches bitwise as beside a small w-
        grid, w, tables, mix = self.coupled_ensemble(128, minus_scale=1e160)
        calm = self.coupled_ensemble(128)[1]
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(
                step_reference.step(w, tables, mix, grid, None)).all()
            linear = self.march(w, tables, mix, grid, None)
            self.march(calm, tables, mix, grid, None)
        np.testing.assert_array_equal(w[:, 1], linear[:, 1])
        np.testing.assert_array_equal(w[:, 0], calm[:, 0])
