"""Spectral core: representation, calculus, and quadrature contracts."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggkdv import spectral as sp
from spectral_reference import (derivative, inner, integral, padded_samples,
                                shift, truncate)


def sin_field(grid, kappa=1, amp=1.0):
    return sp.from_samples(grid, amp * np.sin(2 * np.pi * kappa * grid.nodes()))


def cos_field(grid, kappa=1, amp=1.0):
    return sp.from_samples(grid, amp * np.cos(2 * np.pi * kappa * grid.nodes()))


def random_band_field(grid, seed, kmax=8, decay=1.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.n_coeffs, dtype=np.complex128)
    kmax = min(kmax, grid.dealias_cutoff)
    kappa = np.arange(1, kmax + 1)
    c[1:kmax + 1] = (np.exp(-decay * kappa)
                     * (rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)))
    return sp.SpectralField(grid, c)


class TestGrid:
    def test_cutoff_is_two_thirds_of_the_stored_modes(self):
        g = sp.make_grid(128)
        assert g.n_modes == 64
        assert g.dealias_cutoff == 42
        assert g.dealias_cutoff == (2 * g.n_modes) // 3

    def test_small_and_odd_grids_rejected(self):
        with pytest.raises(ValueError):
            sp.make_grid(7)
        with pytest.raises(ValueError):
            sp.make_grid(130 + 1)
        with pytest.raises(ValueError):
            sp.make_grid(4)

    def test_nodes_span_unit_interval(self):
        g = sp.make_grid(16)
        assert g.nodes()[0] == 0.0
        assert g.nodes()[-1] == pytest.approx(15 / 16)


class TestRepresentation:
    def test_constant_field_lives_in_mode_zero(self):
        g = sp.make_grid(32)
        f = sp.from_samples(g, np.full(32, 3.0))
        assert f.coeffs[0] == pytest.approx(3.0)
        assert np.all(f.coeffs[1:] == 0.0)

    def test_sine_coefficient_convention(self):
        # sin(2 pi x) = (e^{2 pi i x} - e^{-2 pi i x}) / 2i, so coeff(+1) = -i/2
        g = sp.make_grid(16)
        f = sin_field(g)
        assert f.coeffs[1] == pytest.approx(-0.5j, abs=1e-15)
        assert abs(f.coeffs[0]) < 1e-16

    def test_roundtrip_through_samples_is_exact(self):
        g = sp.make_grid(64)
        f = random_band_field(g, seed=0, kmax=20)
        back = sp.from_samples(g, f.samples())
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)

    def test_coeffs_are_immutable(self):
        f = sin_field(sp.make_grid(16))
        with pytest.raises(ValueError):
            f.coeffs[1] = 0.0

    def test_shape_mismatch_rejected(self):
        g = sp.make_grid(16)
        with pytest.raises(ValueError):
            sp.from_samples(g, np.zeros(15))
        with pytest.raises(ValueError):
            sp.SpectralField(g, np.zeros(4, dtype=complex))


class TestCalculus:
    def test_derivative_of_sine_is_scaled_cosine(self):
        g = sp.make_grid(64)
        df = derivative(sin_field(g, kappa=3))
        expect = cos_field(g, kappa=3, amp=6 * np.pi)
        np.testing.assert_allclose(df.samples(), expect.samples(),
                                   atol=1e-10, rtol=0)

    def test_third_derivative_matches_closed_form(self):
        g = sp.make_grid(64)
        d3 = derivative(sin_field(g, kappa=2), 3)
        amp = (4 * np.pi) ** 3
        expect = cos_field(g, kappa=2, amp=-amp)
        np.testing.assert_allclose(d3.samples(), expect.samples(),
                                   atol=5e-12 * amp, rtol=0)

    def test_derivative_of_constant_vanishes(self):
        g = sp.make_grid(32)
        f = sp.from_samples(g, np.full(32, 2.5))
        assert np.all(derivative(f).coeffs == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 64), st.integers(0, 2 ** 16),
           st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.sampled_from([None, np.inf, -np.inf, np.nan]))
    def test_differentiate_is_the_oracle_bitwise(self, half, seed, orders,
                                                 bad):
        g = sp.make_grid(2 * half)
        rows = np.array([random_band_field(g, seed + j, kmax=g.n_modes,
                                           decay=0.1).coeffs
                         for j in range(len(orders))])
        if bad is not None:  # a non-finite Nyquist entry, and one below it
            rows[:, -1], rows[0, 1] = bad, bad
        with np.errstate(all="ignore"):
            got = sp.differentiate(rows.copy(), tuple(orders))
            want = np.array([derivative(sp.SpectralField(g, row), n).coeffs
                             for row, n in zip(rows, orders)])
        # NaN where the oracle has NaN, and every other bit equal
        got, want = got.view(np.float64), want.view(np.float64)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64),
                              want[~nan].view(np.int64))

    def test_the_flux_symbol_is_minus_i_omega_bitwise(self):
        # the stepper's tables and `rhs` fold in -i omega on the kept modes
        from ggkdv.model import _dealiased_ddx
        for n in (8, 32, 128, 256, 1024):
            g = sp.make_grid(n)
            kept = np.arange(g.dealias_cutoff + 1)
            assert (_dealiased_ddx(g).tobytes()
                    == (-1j * (sp.TWO_PI * kept)).tobytes())
            assert (sp.derivative_symbols(g.n_coeffs, (3,))[0, kept].tobytes()
                    == ((1j * (sp.TWO_PI * kept)) ** 3).tobytes())

    def test_derivative_symbols_are_cached_and_read_only(self):
        symbols = sp.derivative_symbols(17, (1, 2))
        assert sp.derivative_symbols(17, (1, 2)) is symbols
        with pytest.raises(ValueError):
            symbols[0, 1] = 0.0

    def test_integral_of_squared_sine_is_half(self):
        g = sp.make_grid(64)
        f = sin_field(g)
        assert inner(f, f) == pytest.approx(0.5, abs=1e-14)

    def test_shift_translates_samples(self):
        g = sp.make_grid(64)
        f = random_band_field(g, seed=3, kmax=10)
        shifted = shift(f, 5 / 64)
        np.testing.assert_allclose(shifted.samples(),
                                   np.roll(f.samples(), -5), atol=1e-12)


class TestProducts:
    def test_integral_of_product_matches_dense_quadrature(self):
        g = sp.make_grid(128)
        fs = [random_band_field(g, seed=s, kmax=8) for s in (1, 2, 3)]
        m = 4096
        dense = np.ones(m)
        for f in fs:
            dense = dense * padded_samples(f, m)
        assert sp.integral_of_product(*fs) == pytest.approx(
            float(np.mean(dense)), abs=1e-15)

    def test_integral_of_product_handles_one_and_two_factors(self):
        g = sp.make_grid(64)
        f, h = sin_field(g), cos_field(g)
        assert sp.integral_of_product(f) == pytest.approx(0.0, abs=1e-16)
        assert sp.integral_of_product(f, f) == pytest.approx(0.5, abs=1e-14)
        assert sp.integral_of_product(f, h) == pytest.approx(0.0, abs=1e-16)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([8, 64, 256]))
    def test_one_and_two_factors_are_their_oracles_bitwise(self, seed, n):
        g = sp.make_grid(n)
        rng = np.random.default_rng(seed)
        f, h = (sp.SpectralField(g, rng.standard_normal(g.n_coeffs)
                                 + 1j * rng.standard_normal(g.n_coeffs))
                for _ in range(2))
        for got, want in ((sp.integral_of_product(f), integral(f)),
                          (sp.integral_of_product(f, h), inner(f, h)),
                          (sp.integral_of_product(h, f), inner(h, f)),
                          (sp.integral_of_product(f, f), inner(f, f))):
            assert got.hex() == want.hex()

    def test_grid_mismatch_rejected(self):
        f = sin_field(sp.make_grid(32))
        h = sin_field(sp.make_grid(64))
        for fields in ((f, h), (f, f, h), (h, f, f)):
            with pytest.raises(ValueError, match="different grids"):
                sp.integral_of_product(*fields)
        with pytest.raises(ValueError, match="different grids"):
            inner(f, h)


# property tests: the four core invariants on seeded band-limited fields

field_seed = st.integers(min_value=0, max_value=10_000)
grid_points = st.sampled_from([64, 96, 128])


@settings(max_examples=60, deadline=None)
@given(seed=field_seed, n=grid_points)
def test_parseval_two_routes_agree(seed, n):
    g = sp.make_grid(n)
    f = random_band_field(g, seed, kmax=g.dealias_cutoff // 2)
    quadrature = float(np.mean(f.samples() ** 2))
    modal = inner(f, f)
    assert abs(quadrature - modal) <= 1e-12 * max(1.0, modal)


@settings(max_examples=60, deadline=None)
@given(seed=field_seed, n=grid_points)
def test_integration_by_parts_and_zero_mean_derivative(seed, n):
    g = sp.make_grid(n)
    f = random_band_field(g, seed, kmax=10)
    h = random_band_field(g, seed + 1, kmax=10)
    assert abs(inner(derivative(f), h)
               + inner(f, derivative(h))) <= 1e-12
    assert integral(derivative(f, 1)) == 0.0
    assert integral(derivative(f, 3)) == 0.0


@settings(max_examples=40, deadline=None)
@given(seed=field_seed, n=grid_points, power=st.integers(1, 3))
def test_powers_of_f_times_fx_integrate_to_zero(seed, n, power):
    # int f^p f_x dx = int (f^{p+1}/(p+1))_x dx = 0 for trig polynomials
    g = sp.make_grid(n)
    f = random_band_field(g, seed, kmax=8)
    fx = derivative(f)
    assert abs(sp.integral_of_product(*([f] * power + [fx]))) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=field_seed)
def test_truncation_is_projection(seed):
    g = sp.make_grid(96)
    f = random_band_field(g, seed, kmax=g.n_modes - 1, decay=0.1)
    t = truncate(f)
    assert t.band() <= g.dealias_cutoff
    assert np.all(t.coeffs[:g.dealias_cutoff + 1]
                  == f.coeffs[:g.dealias_cutoff + 1])
    assert np.all(truncate(t).coeffs == t.coeffs)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([8, 16, 32, 64, 128]),
       n_rows=st.integers(1, 8), seed=field_seed)
def test_padded_samples_equal_the_one_field_resampling_bitwise(data, n,
                                                               n_rows, seed):
    # every row of the batched resampler, for a stack of any size, one
    # included, is bitwise the one-field zero-pad-and-irfft, for any band
    # the target grid can hold
    g = sp.make_grid(n)
    m = data.draw(st.integers(8, 4 * n), label="m")
    top = min(g.n_coeffs - 1, (m - 2) // 2)
    rng = np.random.default_rng(seed)
    fields = []
    for band in data.draw(st.lists(st.integers(0, top), min_size=n_rows,
                                   max_size=n_rows), label="bands"):
        c = np.zeros(g.n_coeffs, dtype=np.complex128)
        c[:band + 1] = (rng.standard_normal(band + 1)
                        + 1j * rng.standard_normal(band + 1))
        fields.append(sp.SpectralField(g, c))
    rows = sp.padded_samples(np.array([f.coeffs for f in fields]),
                             np.array([f.band() for f in fields]), m)
    assert rows.shape == (n_rows, m)
    for f, row in zip(fields, rows):
        want = padded_samples(f, m).tobytes()
        assert row.tobytes() == want
        assert sp.padded_samples(f.coeffs[None], np.array([f.band()]),
                                 m).tobytes() == want
