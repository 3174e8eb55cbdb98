"""Fourier representation of real periodic fields on the unit interval.

Fields live on a uniform grid of n_points collocation nodes x_j = j/n and are
stored as one-sided rfft coefficient arrays normalized so that coeffs[0] is the
mean and coeffs[kappa] multiplies exp(2*pi*i*kappa*x). Products are formed in
collocation space and truncated at the two-thirds dealiasing cutoff, which makes
every retained mode of a quadratic product exact (aliased images of a product of
two cutoff-limited fields land at |kappa| >= n - 2*cutoff > cutoff).
`derivative_symbols` forms the symbol (i omega)^n of d^n/dx^n, and
`differentiate` applies it with the odd-order Nyquist zero: every derivative
in the package is one of the two, but the real omega^3 of `linear_rates`.
`integral_of_product` integrates a product of fields exactly: one factor by
its mean coefficient, two by the Parseval pairing, more by quadrature on a
padded grid on which the product is alias-free.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, 1)."""

    n_points: int
    n_modes: int         # Nyquist index n_points // 2
    dealias_cutoff: int  # highest mode the march and its flux keep

    @property
    def n_coeffs(self) -> int:
        return self.n_points // 2 + 1

    def nodes(self) -> np.ndarray:
        return np.arange(self.n_points) / self.n_points


def make_grid(n_points: int) -> GridSpec:
    if n_points < 8 or n_points % 2 != 0:
        raise ValueError(f"n_points must be even and >= 8, got {n_points}")
    return GridSpec(n_points=n_points, n_modes=n_points // 2,
                    dealias_cutoff=n_points // 3)


@dataclass(frozen=True)
class SpectralField:
    """Immutable real field identified with its trig interpolant."""

    grid: GridSpec
    coeffs: np.ndarray  # complex128, rfft layout, length grid.n_coeffs

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n_coeffs,):
            raise ValueError(f"coefficient array has shape {c.shape}, "
                             f"expected ({self.grid.n_coeffs},)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def samples(self) -> np.ndarray:
        """Values at the collocation nodes."""
        return np.fft.irfft(self.coeffs * self.grid.n_points,
                            n=self.grid.n_points)

    def band(self) -> int:
        """Highest mode index with a nonzero coefficient."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__


def _require_same_grid(f: SpectralField, g: SpectralField) -> None:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def from_samples(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n_points,):
        raise ValueError(f"sample array has shape {samples.shape}, "
                         f"expected ({grid.n_points},)")
    return SpectralField(grid, np.fft.rfft(samples) / grid.n_points)


@functools.lru_cache(maxsize=32)
def derivative_symbols(n_coeffs: int, orders: tuple) -> np.ndarray:
    """(i omega)^n, omega = 2 pi kappa, one read-only row per order n."""
    omega = TWO_PI * np.arange(n_coeffs)
    symbols = np.array([(1j * omega) ** n for n in orders]
                       ).reshape(len(orders), n_coeffs)
    symbols.flags.writeable = False
    return symbols


def differentiate(coeffs: np.ndarray, orders: tuple) -> np.ndarray:
    """Rows (..., len(orders), n_coeffs), in place, each times the symbol of
    its order n >= 1, then 0 at the Nyquist index for odd n: an odd
    derivative of a real field has no consistent Nyquist content."""
    coeffs *= derivative_symbols(coeffs.shape[-1], orders)
    coeffs[..., [n % 2 == 1 for n in orders], -1] = 0.0
    return coeffs


def _parseval_weights(n_coeffs: int) -> np.ndarray:
    w = np.full(n_coeffs, 2.0)
    w[0] = 1.0
    w[-1] = 1.0  # Nyquist coefficient of an even-length rfft is unpaired
    return w


def _next_pow2(m: int) -> int:
    return 1 << (m - 1).bit_length()


def _row_bands(coeffs: np.ndarray) -> np.ndarray:
    """`SpectralField.band` of each row of `coeffs`."""
    nonzero = coeffs != 0
    return np.where(nonzero.any(axis=1), coeffs.shape[1] - 1
                    - np.argmax(nonzero[:, ::-1], axis=1), 0)


def padded_samples(coeffs: np.ndarray, bands: np.ndarray,
                   m: int) -> np.ndarray:
    """Each row of `coeffs`, zeroed above its band, sampled on m points:
    the values of each row's trig interpolant on a finer uniform grid."""
    width = min(m // 2 + 1, coeffs.shape[1])
    padded = np.zeros((len(coeffs), m // 2 + 1), dtype=np.complex128)
    np.copyto(padded[:, :width], coeffs[:, :width],
              where=np.arange(width) <= bands[:, None])
    padded *= m
    return np.fft.irfft(padded, n=m)


def integral_of_product(*fields: SpectralField) -> float:
    """Exact integral of a pointwise product of trig interpolants.

    One factor integrates to its mean coefficient, and two to the Parseval
    pairing of their coefficients. Three or more are resampled on a grid
    fine enough that the full product is alias-free, so the returned
    quadrature mean equals the true integral to rounding error.
    """
    if not fields:
        raise ValueError("need at least one field")
    f = fields[0]
    for g in fields[1:]:
        _require_same_grid(f, g)
    if len(fields) == 1:
        return float(f.coeffs[0].real)
    if len(fields) == 2:
        w = _parseval_weights(f.grid.n_coeffs)
        return float(np.sum(w * (f.coeffs * np.conj(fields[1].coeffs)).real))
    bands = [f.band() for f in fields]
    m = _next_pow2(max(sum(bands) + 1, 2 * max(bands) + 2, 8))
    rows = padded_samples(np.array([f.coeffs for f in fields]),
                          np.array(bands), m)
    prod = rows[0]
    for row in rows[1:]:
        prod = prod * row
    return float(np.mean(prod))
