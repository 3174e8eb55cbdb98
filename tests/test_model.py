"""Coefficient gate, mean reduction, right-hand side, linear symbol,
eigenbasis nonlinear term."""
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from ggkdv import model, spectral as sp
from ggkdv.model import (CoefficientSet, CoefficientError,
                         random_smooth_state)

from conftest import make_sine_state
import etd_reference
from linear_reference import linear_symbol
from spectral_reference import zeros


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

    def test_near_miss_within_tolerance_accepted(self):
        model.validate_coefficients(
            CoefficientSet(a1=1, a2=1 + 1e-13, a3=0.5, k=1))

    def test_unvalidated_coefficients_rejected_by_rhs(self, grid64):
        state = make_sine_state(grid64)
        with pytest.raises(TypeError):
            model.rhs(state, CoefficientSet(a1=1, a2=1, a3=0.5, k=1))

    def test_roundtrip_dict(self):
        c = CoefficientSet(a1=1, a2=0, a3=0.0, k=0.25)
        assert CoefficientSet(**c.to_dict()) == c


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


class TestRhs:
    def test_single_mode_closed_form(self, grid128, coeffs_coupled):
        # u = sin(2 pi x), v = 0:
        #   du = -pi sin(4 pi x) + (2 pi)^3 cos(2 pi x) - k sin(2 pi x)
        #   dv = -a2 pi sin(4 pi x) + a3 (2 pi)^3 cos(2 pi x)
        c = coeffs_coupled
        x = grid128.nodes()
        st = model.reduce_mean(sp.from_samples(grid128, np.sin(2 * np.pi * x)),
                               zeros(grid128))
        du, dv = model.rhs(st, c)
        expect_du = (-np.pi * np.sin(4 * np.pi * x)
                     + (2 * np.pi) ** 3 * np.cos(2 * np.pi * x)
                     - c.k * np.sin(2 * np.pi * x))
        expect_dv = (-c.a2 * np.pi * np.sin(4 * np.pi * x)
                     + c.a3 * (2 * np.pi) ** 3 * np.cos(2 * np.pi * x))
        np.testing.assert_allclose(du.samples(), expect_du, atol=1e-9)
        np.testing.assert_allclose(dv.samples(), expect_dv, atol=1e-9)

    def test_mode_zero_exactly_zero(self, grid64, coeffs_coupled):
        st = make_sine_state(grid64, amp=0.8, mean_u=0.4, mean_v=-0.3)
        du, dv = model.rhs(st, coeffs_coupled)
        assert du.coeffs[0] == 0.0
        assert dv.coeffs[0] == 0.0

    def test_swap_symmetry(self, grid64):
        c = model.validate_coefficients(CoefficientSet(a1=1, a2=0, a3=0, k=0.5))
        c_swapped = model.validate_coefficients(
            CoefficientSet(a1=0, a2=1, a3=0, k=0.5))
        st = make_sine_state(grid64, amp=0.5, mean_u=0.2, mean_v=-0.1)
        st_swapped = model.SimState(u=st.v, v=st.u, t=st.t,
                                    mean_u=st.mean_v, mean_v=st.mean_u)
        du, dv = model.rhs(st, c)
        du_s, dv_s = model.rhs(st_swapped, c_swapped)
        np.testing.assert_allclose(du_s.coeffs, dv.coeffs, atol=1e-14)
        np.testing.assert_allclose(dv_s.coeffs, du.coeffs, atol=1e-14)

    def test_mean_advection_terms(self, grid64, coeffs_coupled):
        # rhs(M, N) - rhs(0, 0) = (-(M u + a1 N v + a2 (N u + M v))_x, ...)
        c = coeffs_coupled
        st = make_sine_state(grid64, amp=0.3, mean_u=0.7, mean_v=-0.4)
        st0 = model.SimState(u=st.u, v=st.v, t=st.t, mean_u=0.0, mean_v=0.0)
        du, dv = model.rhs(st, c)
        du0, dv0 = model.rhs(st0, c)
        M, N = st.mean_u, st.mean_v
        u1, v1 = sp.derivative(st.u), sp.derivative(st.v)
        expect_u = -1.0 * (M * u1 + c.a1 * N * v1 + c.a2 * (N * u1 + M * v1))
        expect_v = -1.0 * (N * v1 + c.a2 * M * u1 + c.a1 * (N * u1 + M * v1))
        np.testing.assert_allclose((du - du0).coeffs, expect_u.coeffs, atol=1e-12)
        np.testing.assert_allclose((dv - dv0).coeffs, expect_v.coeffs, atol=1e-12)

    def test_non_reduced_state_rejected(self, grid64, coeffs_coupled):
        x = grid64.nodes()
        phi = sp.from_samples(grid64, 0.5 + np.sin(2 * np.pi * x))
        st = model.SimState(u=phi, v=zeros(grid64), t=0.0,
                            mean_u=0.0, mean_v=0.0)
        with pytest.raises(ValueError):
            model.rhs(st, coeffs_coupled)

    def test_linearization_consistency(self, grid64, coeffs_coupled):
        # rhs(eps w) = eps L w + O(eps^2): the nonlinear defect must shrink
        # by 4x when eps halves
        c = coeffs_coupled
        rates = model.linear_rates(grid64, c)

        def defect(eps):
            st = make_sine_state(grid64, amp=eps)
            du, dv = model.rhs(st, c)
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
        flux = model.nonlinear_remainder(w, model.eigen_mixing(state, c),
                                         grid)
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
    """The matmul route of `nonlinear_remainder` against its FFT route."""

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
        got = model.nonlinear_remainder(w, mix, grid, transforms)
        want = model.nonlinear_remainder(w, mix, grid)
        p, m = np.moveaxis(np.fft.irfft(w, n=grid.n_points, norm="forward"),
                           -2, 0)
        flux = mix @ np.stack([p * p, m * m, p * m, p, m], axis=-2)
        bound = (self.FLUX_ULPS * np.finfo(float).eps * grid.n_points
                 * np.max(np.abs(flux), axis=(-2, -1)))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound[:, None, None])
        for i in range(len(members)):
            np.testing.assert_array_equal(
                model.nonlinear_remainder(w[i], mix[i], grid, transforms),
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

    @pytest.mark.parametrize("n_points", [32, 64, model.MATMUL_MAX_POINTS])
    def test_no_matrices_above_the_ensemble_load(self, n_points):
        grid = sp.make_grid(n_points)
        n_members = model.MATMUL_MAX_LOAD // n_points ** 2
        assert model.flux_transforms(grid, n_members) is not None
        assert model.flux_transforms(grid, n_members + 1) is None
