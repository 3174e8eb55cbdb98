"""Field translations, L^p norms and single-field resampling, used by tests
only.

`shift` checks translation invariance. `lp_norm` is the norm that
`verification.check_poincare_holder` compares, one field and exponent at a
time, on the same oversampled grid. `padded_samples` is the one-field
zero-pad-and-irfft that `spectral.sample_rows` must reproduce row by row,
bit for bit.
"""
from __future__ import annotations

import numpy as np

from ggkdv.spectral import TWO_PI, GridSpec, SpectralField
from ggkdv.verification import _abs_samples, _norm_of_abs


def zeros(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_coeffs, dtype=np.complex128))


def shift(f: SpectralField, s: float) -> SpectralField:
    """Translate: shift(f, s)(x) = f(x + s)."""
    phase = np.exp(1j * TWO_PI * f.grid.wavenumbers() * s)
    return SpectralField(f.grid, f.coeffs * phase)


def lp_norm(f: SpectralField, p) -> float:
    """L^p norm of the trig interpolant on an oversampled grid (p >= 1 or inf)."""
    return _norm_of_abs(_abs_samples(f)[0], p)


def padded_samples(f: SpectralField, m: int) -> np.ndarray:
    """Values of the trig interpolant on a finer uniform grid of m points."""
    if m < 2 * f.band() + 2 and f.band() > 0:
        raise ValueError("target grid too coarse for this field's band")
    c = np.zeros(m // 2 + 1, dtype=np.complex128)
    b = f.band()
    c[:b + 1] = f.coeffs[:b + 1]
    return np.fft.irfft(c * m, n=m)
