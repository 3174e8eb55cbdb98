"""Field translations and L^p norms, used by tests only.

`shift` checks translation invariance. `lp_norm` is the norm that
`verification.check_poincare_holder` compares, one field and exponent at a
time, on the same oversampled grid.
"""
from __future__ import annotations

import numpy as np

from ggkdv.spectral import TWO_PI, SpectralField
from ggkdv.verification import _abs_samples, _norm_of_abs


def shift(f: SpectralField, s: float) -> SpectralField:
    """Translate: shift(f, s)(x) = f(x + s)."""
    phase = np.exp(1j * TWO_PI * f.grid.wavenumbers() * s)
    return SpectralField(f.grid, f.coeffs * phase)


def lp_norm(f: SpectralField, p, oversample: int = 4) -> float:
    """L^p norm of the trig interpolant on an oversampled grid (p >= 1 or inf)."""
    return _norm_of_abs(_abs_samples(f, oversample), p)
