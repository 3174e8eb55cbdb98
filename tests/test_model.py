"""Coefficient gate, mean reduction, right-hand side, linear symbol,
eigenbasis nonlinear term."""
import dataclasses
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from ggkdv import model, spectral as sp, verification
from ggkdv.model import (CoefficientSet, CoefficientError,
                         random_smooth_state)

from conftest import COUPLED, make_sine_state, rhs_fields
import etd_reference
import step_reference
from linear_reference import linear_symbol
from spectral_reference import derivative, zeros


class TestCoefficientGate:
    def test_coupled_branch_accepted(self):
        vc = model.validate_coefficients(CoefficientSet(a1=1, a2=1, a3=0.5, k=1))
        assert vc.branch == "a1=a2=1"

    def test_uncoupled_branch_accepted(self):
        vc = model.validate_coefficients(CoefficientSet(a1=1, a2=0, a3=0.0, k=2))
        assert vc.branch == "a3=0"
        vc = model.validate_coefficients(CoefficientSet(a1=0, a2=0, a3=0.0, k=2))
        assert vc.branch == "a3=0"

    @pytest.mark.parametrize("coeffs,constraint", [
        (dict(a1=1, a2=1, a3=1.0, k=1), "a3_magnitude"),
        (dict(a1=1, a2=1, a3=0.5, k=1, r=0.3), "r_zero"),
        (dict(a1=0.5, a2=0.5, a3=0.0, k=1), "a1_a2_quadratic"),
        (dict(a1=0.9, a2=1.0, a3=0.5, k=1), "a1_a3_coupling"),
        (dict(a1=1, a2=1, a3=0.5, k=0.0), "k_positive"),
        (dict(a1=1, a2=1, a3=0.5, k=1, b1=2.0), "b1_unit"),
        (dict(a1=1, a2=0.9, a3=0.5, k=1), "a2_a3_coupling"),
        (dict(a1=1, a2=1, a3=0.5, k=1, b2=0.5), "b2_unit"),
        (dict(a1=1, a2=1, a3=0.5, k=-1.0), "k_positive"),
    ])
    def test_rejections_name_the_constraint(self, coeffs, constraint):
        with pytest.raises(CoefficientError) as err:
            model.validate_coefficients(CoefficientSet(**coeffs))
        assert constraint in {v.constraint for v in err.value.violations}

    @pytest.mark.parametrize("coeffs", [
        dict(a1=float("nan"), a2=1, a3=0.5, k=1),
        dict(a1=1, a2=1, a3=0.5, k=float("inf")),
        dict(a1=1, a2=1, a3=float("-inf"), k=1),
        dict(a1=1, a2=1, a3=0.5, k=1, r=float("nan")),
    ])
    def test_non_finite_coefficients_rejected(self, coeffs):
        # abs(nan) > tol is False, so NaN slips past every other constraint
        bad = model.check_coefficients(CoefficientSet(**coeffs))
        assert "finite" in {v.constraint for v in bad}

    # every float, NaN and +-inf among them, and the values of the two
    # branches, so that some drawn sets pass
    ANY_VALUE = st.floats() | st.sampled_from([0.0, 1.0, 0.5, -0.5])

    @settings(max_examples=300, deadline=None)
    @given(a1=ANY_VALUE, a2=ANY_VALUE, a3=ANY_VALUE, k=ANY_VALUE)
    @example(a1=1e200, a2=1.0, a3=0.5, k=1.0)  # a1 ** 2 overflowed
    @example(a1=1e308, a2=1.0, a3=0.5, k=1.0)
    @example(a1=1e308, a2=1e308, a3=0.0, k=1.0)  # quad = inf - inf = NaN
    def test_gate_refuses_by_name_or_passes_an_admissible_set(self, a1, a2,
                                                              a3, k):
        c = CoefficientSet(a1=a1, a2=a2, a3=a3, k=k)
        bad = model.check_coefficients(c)
        try:
            model.validate_coefficients(c)
        except CoefficientError as err:
            assert bad and err.violations == bad
            return
        assert not bad
        quad = a1 * a1 + a2 * a2 - (a1 + a2)
        assert math.isfinite(quad) and abs(quad) <= model.CONSTRAINT_TOL
        assert k > 0.0 and abs(a3) < 1.0

    def test_near_miss_within_tolerance_accepted(self):
        model.validate_coefficients(
            CoefficientSet(a1=1, a2=1 + 1e-13, a3=0.5, k=1))

    def test_unvalidated_coefficients_rejected_by_rhs(self, grid64):
        state = make_sine_state(grid64)
        with pytest.raises(TypeError):
            model.rhs([state], CoefficientSet(a1=1, a2=1, a3=0.5, k=1))

    def test_roundtrip_dict(self):
        c = CoefficientSet(a1=1, a2=0, a3=0.0, k=0.25)
        assert CoefficientSet(**c.to_dict()) == c


BRANCH_SETS = [CoefficientSet(a1=1, a2=1, a3=0.5, k=1),
               CoefficientSet(a1=1, a2=0, a3=0.0, k=2)]


class TestOneCoefficientFieldList:
    def test_validated_set_has_the_fields_of_the_raw_set(self):
        assert (dataclasses.fields(model.ValidatedCoefficients)
                == dataclasses.fields(CoefficientSet))

    @pytest.mark.parametrize("c", BRANCH_SETS, ids=["a1=a2=1", "a3=0"])
    def test_validation_keeps_every_value(self, c):
        assert model.validate_coefficients(c).to_dict() == c.to_dict()

    @pytest.mark.parametrize("c", BRANCH_SETS, ids=["a1=a2=1", "a3=0"])
    def test_an_equal_set_hits_the_cached_plan(self, c):
        plan = verification.observation_plan(
            model.validate_coefficients(c), ("L2",), 1)
        size = verification.observation_plan.cache_info().currsize
        again = model.validate_coefficients(CoefficientSet(**c.to_dict()))
        assert verification.observation_plan(again, ("L2",), 1) is plan
        assert verification.observation_plan.cache_info().currsize == size


class TestReduceMean:
    def test_means_split_off_exactly(self, grid64):
        x = grid64.nodes()
        phi = sp.from_samples(grid64, 0.7 + np.sin(2 * np.pi * x))
        psi = sp.from_samples(grid64, -0.2 + np.cos(4 * np.pi * x))
        st = model.reduce_mean(phi, psi)
        assert st.mean_u == pytest.approx(0.7, abs=1e-15)
        assert st.mean_v == pytest.approx(-0.2, abs=1e-15)
        assert st.u.coeffs[0] == 0.0
        assert st.v.coeffs[0] == 0.0
        # reduction only touches mode 0
        np.testing.assert_array_equal(st.u.coeffs[1:], phi.coeffs[1:])

    def test_reconstruction(self, grid64):
        x = grid64.nodes()
        phi = sp.from_samples(grid64, 1.5 + 0.3 * np.sin(2 * np.pi * x))
        psi = sp.from_samples(grid64, 0.1 * np.cos(2 * np.pi * x))
        st = model.reduce_mean(phi, psi)
        np.testing.assert_allclose(st.u.samples() + st.mean_u, phi.samples(),
                                   atol=1e-14)


class TestRandomSmoothField:
    def test_fills_exactly_the_modes_up_to_kmax(self):
        grid = sp.make_grid(16)  # dealiasing cutoff 5
        for kmax in (1, 5):
            f = model.random_smooth_field(grid, np.random.default_rng(0), kmax)
            assert f.coeffs[0] == 0.0 and f.band() == kmax

    @pytest.mark.parametrize("n_points, kmax", [(16, 6), (16, 8), (64, 22)])
    def test_a_kmax_past_the_cutoff_is_refused(self, n_points, kmax):
        grid = sp.make_grid(n_points)
        message = (rf"kmax = {kmax} > {grid.dealias_cutoff}, the dealiasing "
                   r"cutoff")
        with pytest.raises(ValueError, match=message):
            model.random_smooth_field(grid, np.random.default_rng(0), kmax)
        with pytest.raises(ValueError, match=message):
            random_smooth_state(grid, seed=0, kmax=kmax)


class TestRhs:
    def test_single_mode_closed_form(self, grid128, coeffs_coupled):
        # u = sin(2 pi x), v = 0:
        #   du = -pi sin(4 pi x) + (2 pi)^3 cos(2 pi x) - k sin(2 pi x)
        #   dv = -a2 pi sin(4 pi x) + a3 (2 pi)^3 cos(2 pi x)
        c = coeffs_coupled
        x = grid128.nodes()
        st = model.reduce_mean(sp.from_samples(grid128, np.sin(2 * np.pi * x)),
                               zeros(grid128))
        du, dv = rhs_fields(st, c)
        expect_du = (-np.pi * np.sin(4 * np.pi * x)
                     + (2 * np.pi) ** 3 * np.cos(2 * np.pi * x)
                     - c.k * np.sin(2 * np.pi * x))
        expect_dv = (-c.a2 * np.pi * np.sin(4 * np.pi * x)
                     + c.a3 * (2 * np.pi) ** 3 * np.cos(2 * np.pi * x))
        np.testing.assert_allclose(du.samples(), expect_du, atol=1e-9)
        np.testing.assert_allclose(dv.samples(), expect_dv, atol=1e-9)

    def test_mode_zero_exactly_zero(self, grid64, coeffs_coupled):
        st = make_sine_state(grid64, amp=0.8, mean_u=0.4, mean_v=-0.3)
        du, dv = rhs_fields(st, coeffs_coupled)
        assert du.coeffs[0] == 0.0
        assert dv.coeffs[0] == 0.0

    def test_swap_symmetry(self, grid64):
        c = model.validate_coefficients(CoefficientSet(a1=1, a2=0, a3=0, k=0.5))
        c_swapped = model.validate_coefficients(
            CoefficientSet(a1=0, a2=1, a3=0, k=0.5))
        st = make_sine_state(grid64, amp=0.5, mean_u=0.2, mean_v=-0.1)
        st_swapped = model.SimState(u=st.v, v=st.u, t=st.t,
                                    mean_u=st.mean_v, mean_v=st.mean_u)
        du, dv = rhs_fields(st, c)
        du_s, dv_s = rhs_fields(st_swapped, c_swapped)
        np.testing.assert_allclose(du_s.coeffs, dv.coeffs, atol=1e-14)
        np.testing.assert_allclose(dv_s.coeffs, du.coeffs, atol=1e-14)

    def test_mean_advection_terms(self, grid64, coeffs_coupled):
        # rhs(M, N) - rhs(0, 0) = (-(M u + a1 N v + a2 (N u + M v))_x, ...)
        c = coeffs_coupled
        st = make_sine_state(grid64, amp=0.3, mean_u=0.7, mean_v=-0.4)
        st0 = model.SimState(u=st.u, v=st.v, t=st.t, mean_u=0.0, mean_v=0.0)
        du, dv = model.rhs([st], c)[0]
        du0, dv0 = model.rhs([st0], c)[0]
        M, N = st.mean_u, st.mean_v
        u1, v1 = derivative(st.u).coeffs, derivative(st.v).coeffs
        expect_u = -1.0 * (M * u1 + c.a1 * N * v1 + c.a2 * (N * u1 + M * v1))
        expect_v = -1.0 * (N * v1 + c.a2 * M * u1 + c.a1 * (N * u1 + M * v1))
        np.testing.assert_allclose(du - du0, expect_u, atol=1e-12)
        np.testing.assert_allclose(dv - dv0, expect_v, atol=1e-12)

    def test_non_reduced_state_rejected(self, grid64, coeffs_coupled):
        x = grid64.nodes()
        phi = sp.from_samples(grid64, 0.5 + np.sin(2 * np.pi * x))
        st = model.SimState(u=phi, v=zeros(grid64), t=0.0,
                            mean_u=0.0, mean_v=0.0)
        with pytest.raises(ValueError):
            model.rhs([st], coeffs_coupled)

    def test_linearization_consistency(self, grid64, coeffs_coupled):
        # rhs(eps w) = eps L w + O(eps^2): the nonlinear defect must shrink
        # by 4x when eps halves
        c = coeffs_coupled
        rates = model.linear_rates(grid64, c)

        def defect(eps):
            st = make_sine_state(grid64, amp=eps)
            du, dv = rhs_fields(st, c)
            w_plus = (st.u.coeffs + st.v.coeffs) / np.sqrt(2)
            w_minus = (st.u.coeffs - st.v.coeffs) / np.sqrt(2)
            lin_u = (rates[0] * w_plus + rates[1] * w_minus) / np.sqrt(2)
            lin_v = (rates[0] * w_plus - rates[1] * w_minus) / np.sqrt(2)
            return max(np.max(np.abs(du.coeffs - lin_u)),
                       np.max(np.abs(dv.coeffs - lin_v)))

        d1, d2 = defect(1e-3), defect(5e-4)
        assert d1 / d2 == pytest.approx(4.0, rel=0.05)


class TestLinearSymbol:
    @pytest.mark.parametrize("kappa", [0, 1, 5, 32])
    def test_eigendecomposition_reconstructs_matrix(self, coeffs_coupled, kappa):
        sym = linear_symbol(coeffs_coupled, kappa)
        P = sym.eigenvectors
        rebuilt = P @ np.diag(sym.eigenvalues) @ np.linalg.inv(P)
        scale = max(1.0, np.max(np.abs(sym.matrix)))
        assert np.max(np.abs(rebuilt - sym.matrix)) <= 1e-13 * scale

    def test_eigenpairs_satisfy_definition(self, coeffs_coupled):
        sym = linear_symbol(coeffs_coupled, 3)
        for lam, vec in zip(sym.eigenvalues, sym.eigenvectors.T):
            resid = sym.matrix @ vec - lam * vec
            assert np.max(np.abs(resid)) <= 1e-12 * abs(lam)

    def test_mode_zero_is_undamped(self, coeffs_coupled):
        sym = linear_symbol(coeffs_coupled, 0)
        assert np.all(sym.matrix == 0.0)
        assert np.all(sym.eigenvalues == 0.0)

    def test_rates_match_symbol_eigenvalues(self, grid64, coeffs_coupled):
        rates = model.linear_rates(grid64, coeffs_coupled)
        for kappa in (0, 1, 7, 20):
            sym = linear_symbol(coeffs_coupled, kappa)
            assert rates[0, kappa] == pytest.approx(sym.eigenvalues[0])
            assert rates[1, kappa] == pytest.approx(sym.eigenvalues[1])

    def test_damping_shifts_real_part_only(self, coeffs_coupled):
        sym = linear_symbol(coeffs_coupled, 4)
        assert np.all(sym.eigenvalues.real == pytest.approx(-coeffs_coupled.k))


@st.composite
def term_cases(draw):
    """A state with nonzero means on a grid of 16-256 points, and
    coefficients on either admissible branch."""
    grid = sp.make_grid(draw(st.sampled_from((16, 32, 64, 128, 256))))
    return draw(term_member(grid))


@st.composite
def term_member(draw, grid):
    """A state on `grid` with nonzero means, and coefficients on either
    admissible branch."""
    if draw(st.booleans()):
        # a1 = a2 = 1 branch, 0 < |a3| < 1
        a3 = draw(st.floats(0.05, 0.9)) * draw(st.sampled_from((-1.0, 1.0)))
        coeffs = CoefficientSet(a1=1.0, a2=1.0, a3=a3, k=1.0)
    else:
        # a3 = 0 branch: (a1, a2) on the circle a1^2 + a2^2 = a1 + a2
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        coeffs = CoefficientSet(a1=0.5 + math.cos(theta) / math.sqrt(2),
                                a2=0.5 + math.sin(theta) / math.sqrt(2),
                                a3=0.0, k=1.0)
    state = random_smooth_state(
        grid, seed=draw(st.integers(0, 10 ** 6)),
        amplitude=draw(st.floats(1e-3, 10.0)),
        kmax=draw(st.integers(1, grid.dealias_cutoff)))
    mean_u, mean_v = (draw(st.floats(0.01, 3.0))
                      * draw(st.sampled_from((-1.0, 1.0))) for _ in range(2))
    state = model.SimState(u=state.u, v=state.v, t=0.0,
                           mean_u=mean_u, mean_v=mean_v)
    return state, model.validate_coefficients(coeffs)


def flux_of(w, mix, grid, transforms=None):
    """The flux of `w` into a new array, by `model.nonlinear_remainder` or,
    given `transforms`, by `model._bind_flux` on the matmul route."""
    return step_reference.bound_remainder(w, mix, grid, np.empty_like(w),
                                          transforms)


class TestNonlinearRemainder:
    """The eigenbasis flux against the (u, v) term of the serial reference."""

    # Every flux term is a product of two of u, v, M, N, so with
    # S = max|u| + max|v| on the grid no term exceeds S (S + |M| + |N|) by
    # more than the couplings' size; -i omega scales it by at most the
    # cutoff's omega. The stated bound is TERM_ULPS times eps times that;
    # the largest ratio seen over 2000 random cases was 0.27.
    TERM_ULPS = 2.0

    @settings(max_examples=60, deadline=None)
    @given(term_cases())
    def test_eigenbasis_term_matches_uv_reference(self, case):
        state, c = case
        grid = state.grid
        kept = grid.dealias_cutoff + 1
        nu, nv = etd_reference.nonlinear_remainder(
            state.u.coeffs, state.v.coeffs, state.mean_u, state.mean_v, c,
            grid)
        w = model._rotate(np.stack([state.u.coeffs, state.v.coeffs])[:, :kept])
        flux = flux_of(w, model.eigen_mixing(state, c), grid)
        omega = sp.TWO_PI * np.arange(kept)
        got = model._rotate(-1j * omega * flux)
        size = (np.max(np.abs(state.u.samples()))
                + np.max(np.abs(state.v.samples())))
        scale = (np.finfo(float).eps * omega[-1] * size
                 * (size + abs(state.mean_u) + abs(state.mean_v)))
        assert np.all(np.abs(got - np.stack([nu, nv])[:, :kept])
                      <= self.TERM_ULPS * scale)
        # the reference is exactly zero above the cutoff, where the
        # eigenbasis flux has no modes at all
        assert not np.any(nu[kept:]) and not np.any(nv[kept:])


class TestFluxTransforms:
    """The matmul route of the flux against its FFT route."""

    # Each matmul entry sums n (analysis) or 2 kept (synthesis) products,
    # so the two routes may differ by FLUX_ULPS * eps * n * max|flux|, with
    # max|flux| taken over the member's physical flux. The largest ratio
    # seen over 7000 random cases was 0.17.
    FLUX_ULPS = 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, model.MATMUL_MAX_POINTS // 2)
           .map(lambda half: sp.make_grid(2 * half))
           .flatmap(lambda grid: st.lists(term_member(grid), min_size=1,
                                          max_size=5)))
    def test_matmul_flux_matches_fft_flux(self, members):
        grid = members[0][0].grid
        kept = grid.dealias_cutoff + 1
        w = np.stack([model._rotate(np.stack([s.u.coeffs, s.v.coeffs])
                                    [:, :kept]) for s, _ in members])
        mix = np.stack([model.eigen_mixing(s, c) for s, c in members])
        transforms = model.flux_transforms(grid)
        got = flux_of(w, mix, grid, transforms)
        want = flux_of(w, mix, grid)
        p, m = np.moveaxis(np.fft.irfft(w, n=grid.n_points, norm="forward"),
                           -2, 0)
        flux = mix @ np.stack([p * p, m * m, p * m, p, m], axis=-2)
        bound = (self.FLUX_ULPS * np.finfo(float).eps * grid.n_points
                 * np.max(np.abs(flux), axis=(-2, -1)))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound[:, None, None])
        for i in range(len(members)):
            np.testing.assert_array_equal(
                flux_of(w[i], mix[i], grid, transforms),
                got[i])

    # Entries against the exact DFT, in extended precision where the
    # platform has it: the reduced angle 2 pi ((kappa j) mod n) / n is off
    # by at most eps 2 pi, so an entry of synth, or of n anal, may be off
    # by ENTRY_ULPS eps; the largest seen, over every grid, was 8.9 eps.
    # Unreduced angles, up to 2 pi kappa j / n, cost about 300 eps.
    ENTRY_ULPS = 16.0

    def test_entries_match_the_exact_dft(self):
        two_pi = 2.0 * np.arccos(np.longdouble(-1.0))
        for n in range(8, model.MATMUL_MAX_POINTS + 1, 2):
            grid = sp.make_grid(n)
            kept = grid.dealias_cutoff + 1
            theta = two_pi * np.outer(np.arange(kept), np.arange(n)) / n
            cos, sin = np.cos(theta), np.sin(theta)
            # irfft and rfft (norm="forward") of the unit (re, im) pairs
            want_synth = np.stack([2 * cos, -2 * sin], axis=1)
            want_synth[0] = [[1.0], [0.0]]
            want_anal = np.stack([cos.T, -sin.T], axis=-1)
            synth, anal = model.flux_transforms(grid)
            tol = self.ENTRY_ULPS * np.finfo(float).eps
            assert np.all(np.abs(synth - want_synth.reshape(2 * kept, n))
                          <= tol)
            assert np.all(np.abs(n * anal - want_anal.reshape(n, 2 * kept))
                          <= tol)

    def test_no_matrices_above_the_threshold(self):
        assert model.flux_transforms(
            sp.make_grid(model.MATMUL_MAX_POINTS)) is not None
        assert model.flux_transforms(
            sp.make_grid(model.MATMUL_MAX_POINTS + 2)) is None


class TestBoundFlux:
    """A flux `_bind_flux` binds per call (on the FFT route,
    `nonlinear_remainder`), and one it binds and reuses, against the
    allocating flux of `step_reference`, which calls the public `np.fft`,
    bitwise, on both routes and on grids of up to 512 points."""

    @settings(max_examples=60, deadline=None)
    @given(grid=st.integers(4, 256).map(lambda half: sp.make_grid(2 * half)),
           n_members=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           matmul=st.booleans(), poison=st.lists(
               st.sampled_from((None, np.inf, -np.inf, np.nan)),
               min_size=5, max_size=5))
    def test_bound_flux_equals_the_allocating_flux(
            self, grid, n_members, seed, matmul, poison):
        rng = np.random.default_rng(seed)
        kept = grid.dealias_cutoff + 1
        w = rng.standard_normal((n_members, 2, 2 * kept)).view(np.complex128)
        mix = rng.standard_normal((n_members, 2, 5))
        for i, value in enumerate(poison[:n_members]):
            if value is not None:  # a member holding inf or NaN
                w[i, rng.integers(2), rng.integers(kept)] = value
        # above MATMUL_MAX_POINTS there are no matrices: the FFT route
        transforms = model.flux_transforms(grid) if matmul else None
        flux = model._bind_flux(w.shape, grid, mix, transforms)
        first, second = np.empty((2,) + w.shape, dtype=np.complex128)
        view = ((lambda x: x) if transforms is None
                else (lambda x: x.view(np.float64)))
        with np.errstate(all="ignore"):
            want = step_reference.nonlinear_remainder(w, mix, grid,
                                                      transforms)
            np.testing.assert_array_equal(
                flux_of(w, mix, grid, transforms), want)
            # one bound flux, its buffers reused: as in a step, one
            # stage's flux is the next call's input
            flux(view(w), view(first))
            flux(view(first), view(second))
            np.testing.assert_array_equal(first, want)
            np.testing.assert_array_equal(
                second, step_reference.nonlinear_remainder(want, mix, grid,
                                                           transforms))


def eigen_members(members):
    """The state w (P, 2, kept) and mix (P, 2, 5) of (state, coefficients)
    members on one grid."""
    kept = members[0][0].grid.dealias_cutoff + 1
    w = np.stack([model._rotate(np.stack([s.u.coeffs, s.v.coeffs])[:, :kept])
                  for s, _ in members])
    return w, np.stack([model.eigen_mixing(s, c) for s, c in members])


@st.composite
def coupled_member(draw, grid):
    """A zero-mean state on `grid` under a1 = a2 = 1, a3 in (-1, 1)."""
    c = CoefficientSet(a1=1.0, a2=1.0, a3=draw(st.floats(-0.99, 0.99)),
                       k=draw(st.floats(0.1, 2.0)))
    state = random_smooth_state(grid, seed=draw(st.integers(0, 10 ** 6)),
                                amplitude=draw(st.floats(1e-3, 10.0)),
                                kmax=draw(st.integers(1, 8)))
    return state, model.validate_coefficients(c)


def two_branch_flux(w, mix, grid):
    """The flux of `w` by the two-branch oracle, into a new array."""
    out = np.empty_like(w)
    step_reference.bind_two_branch_flux(w.shape, grid, mix)(w, out)
    return out


class TestOneBranchFlux:
    """Where `mix` reads neither w- nor F- (a1 = a2 = 1, zero means), the
    FFT route transforms w+ alone, bitwise the two-branch flux; every other
    mix keeps both branches."""

    # 98 points is the smallest grid on the FFT route
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((98, 128, 256)).map(sp.make_grid).flatmap(
        lambda grid: st.lists(coupled_member(grid), min_size=1,
                              max_size=5)))
    def test_one_branch_flux_equals_the_two_branch_flux_bitwise(
            self, members):
        grid = members[0][0].grid
        w, mix = eigen_members(members)
        assert model._branches(mix) == 1
        want = two_branch_flux(w, mix, grid)
        assert not want[:, 1].any()  # F- is exactly zero
        np.testing.assert_array_equal(flux_of(w, mix, grid), want)
        # bound once and reused, as in a step, on the rows of w+ alone
        flux = model._bind_flux(w.shape, grid, mix)
        first, second = np.zeros((2,) + w.shape, dtype=np.complex128)
        flux(w[:, :1], first[:, :1])
        flux(first[:, :1], second[:, :1])
        np.testing.assert_array_equal(first, want)
        np.testing.assert_array_equal(second,
                                      two_branch_flux(want, mix, grid))

    # (a1, a2, a3, mean_u, mean_v): nonzero means, where eigen_mixing's
    # 2x2 matmuls leave about 1e-17 of round-off in the F- row and the m
    # column; a1 off 1 by 1e-13, which the gate admits; the a3 = 0 circle
    TWO_BRANCH_CASES = [
        (1.0, 1.0, 0.5, 0.5, -0.25),
        (1.0, 1.0, -0.3, 0.3, 0.1),
        (1.0 + 1e-13, 1.0, 0.5, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (0.5 + math.cos(1.0) / math.sqrt(2),
         0.5 + math.sin(1.0) / math.sqrt(2), 0.0, 0.0, 0.0),
    ]

    @pytest.mark.parametrize("a1, a2, a3, mean_u, mean_v", TWO_BRANCH_CASES)
    def test_every_other_mix_keeps_two_branches(self, a1, a2, a3, mean_u,
                                                mean_v):
        grid = sp.make_grid(128)
        c = model.validate_coefficients(CoefficientSet(a1, a2, a3, k=1.0))
        state = dataclasses.replace(
            random_smooth_state(grid, seed=3, amplitude=0.5),
            mean_u=mean_u, mean_v=mean_v)
        w, mix = eigen_members([(state, c)])
        assert model._branches(mix) == 2
        np.testing.assert_array_equal(flux_of(w, mix, grid),
                                      two_branch_flux(w, mix, grid))

    def test_any_entry_that_reads_w_minus_keeps_two_branches(self):
        grid = sp.make_grid(128)
        state = random_smooth_state(grid, seed=4, amplitude=0.5)
        w, mix = eigen_members([(state, COUPLED)] * 2)
        # the matmul route keeps both, whatever the mix
        assert model._branches(mix, model.flux_transforms(
            sp.make_grid(model.MATMUL_MAX_POINTS))) == 2
        # the F- row and the mm, pm and m columns of F+, in either member
        for index in [(1, 1, j) for j in range(5)] + [(0, 0, 1), (0, 0, 2),
                                                     (0, 0, 4)]:
            read = mix.copy()
            read[index] = 1e-17
            assert model._branches(read) == 2
            np.testing.assert_array_equal(flux_of(w, read, grid),
                                          two_branch_flux(w, read, grid))
        # the p column alone, mean advection with exact zeros beside it,
        # reads w+ only: one branch, and the mixing matmul keeps its shape
        advected = mix.copy()
        advected[:, 0, 3] = 0.7
        assert model._branches(advected) == 1
        np.testing.assert_array_equal(flux_of(w, advected, grid),
                                      two_branch_flux(w, advected, grid))
