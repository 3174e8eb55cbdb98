"""Field derivatives and translations, integrals, L^p norms, single-field
resampling and the one-field Poincare/Holder check, used by tests only.

`derivative` is the independent oracle of `spectral.derivative_symbols`:
every derived field of the library must match it. `integral` (the mean
coefficient) and `inner` (the Parseval pairing) integrate one field and a
product of two: `spectral.integral_of_product` must give bitwise their
numbers for one and two factors. `shift` checks translation invariance.
`truncate` zeroes a field above the dealiasing cutoff, as the serial
march of `etd_reference` starts. `padded_samples` is the one-field
zero-pad-and-irfft that `spectral.padded_samples` must reproduce row by
row, bit for bit.
`lp_norm` is the norm that `verification.check_poincare_holder` compares,
one field and exponent at a time, on the same oversampled grid, and
`poincare_holder` is that check of one field at one (p, q): the stacked
check must fail exactly the pairs it fails.
"""
from __future__ import annotations

import math

import numpy as np

from ggkdv.spectral import (TWO_PI, GridSpec, SpectralField, _next_pow2,
                            _parseval_weights, _require_same_grid)


def truncate(f: SpectralField) -> SpectralField:
    """Zero every mode above the grid's dealiasing cutoff."""
    c = f.coeffs.copy()
    c[f.grid.dealias_cutoff + 1:] = 0.0
    return SpectralField(f.grid, c)


def derivative(f: SpectralField, order: int = 1) -> SpectralField:
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return f
    omega = TWO_PI * np.arange(f.grid.n_coeffs)
    c = f.coeffs * (1j * omega) ** order
    if order % 2 == 1:
        # odd derivative of a real field has no consistent Nyquist content
        c[-1] = 0.0
    return SpectralField(f.grid, c)


def integral(f: SpectralField) -> float:
    """Integral over [0, 1), i.e. the mean coefficient."""
    return float(f.coeffs[0].real)


def inner(f: SpectralField, g: SpectralField) -> float:
    """Exact integral of f*g over [0, 1) via the coefficient pairing."""
    _require_same_grid(f, g)
    w = _parseval_weights(f.grid.n_coeffs)
    return float(np.sum(w * (f.coeffs * np.conj(g.coeffs)).real))


def zeros(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_coeffs, dtype=np.complex128))


def shift(f: SpectralField, s: float) -> SpectralField:
    """Translate: shift(f, s)(x) = f(x + s)."""
    phase = np.exp(1j * TWO_PI * np.arange(f.grid.n_coeffs) * s)
    return SpectralField(f.grid, f.coeffs * phase)


def padded_samples(f: SpectralField, m: int) -> np.ndarray:
    """Values of the trig interpolant on a finer uniform grid of m points."""
    if m < 2 * f.band() + 2 and f.band() > 0:
        raise ValueError("target grid too coarse for this field's band")
    c = np.zeros(m // 2 + 1, dtype=np.complex128)
    b = f.band()
    c[:b + 1] = f.coeffs[:b + 1]
    return np.fft.irfft(c * m, n=m)


def _abs_samples(f: SpectralField) -> np.ndarray:
    """|f| on the grid the L^p norms use."""
    return np.abs(padded_samples(f, _next_pow2(4 * f.grid.n_points)))


def _norm_of_abs(s: np.ndarray, p) -> float:
    """Discrete L^p norm of nonnegative samples (p >= 1 or inf)."""
    if p == math.inf:
        return float(np.max(s))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.mean(s ** p) ** (1.0 / p))


def lp_norm(f: SpectralField, p) -> float:
    """L^p norm of the trig interpolant on an oversampled grid (p >= 1 or inf)."""
    return _norm_of_abs(_abs_samples(f), p)


def poincare_holder(f: SpectralField, p, q, slack: float = 1e-10) -> bool:
    """Mean-free Poincare bound ||f - [f]||_p <= ||f_x||_q for any p, q >= 1,
    plus L^p monotonicity ||f||_p <= ||f||_q whenever p <= q."""
    mean_free = SpectralField(f.grid,
                              np.concatenate([[0.0], f.coeffs[1:]]))
    ok = lp_norm(mean_free, p) <= lp_norm(derivative(f), q) + slack
    if p <= q:
        ok = ok and lp_norm(f, p) <= lp_norm(f, q) + slack
    return ok
