"""Damped coupled-KdV system on the periodic unit interval.

The fields (u, v) evolve, after removal of their conserved means (M, N), under

    u_t = -( (u + M) u_x + u_xxx + a3 v_xxx
             + a1 (v + N) v_x + a2 ((u + M)(v + N))_x + k u )
    v_t = same with (u, M, a1) <-> (v, N, a2) swapped

with damping k (u - mean u), k (v - mean v) in the unreduced system, so mode 0
feels no damping and the means are conserved. The coefficient gate enforces the
regime in which the decay theory holds: r = 0, b1 = b2 = 1, and either a3 = 0
with a1^2 + a2^2 = a1 + a2, or 0 < |a3| < 1 with a1 = a2 = 1.

The linear part is diagonal in the eigenbasis w+- = (u +- v)/sqrt(2), and
`_rotate` is that transform, both ways. The nonlinear terms are -d/dx of a
flux quadratic in (u, v); written in the eigenbasis it is a fixed mix of
the products of w+ and w- plus a mean-advection term linear in w+-, the
one real matrix [Q | L] of `eigen_mixing`, applied in physical space.
`nonlinear_remainder` evaluates it on the dealiased modes, for the time
stepper and for `rhs` alike.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
import functools
import math

import numpy as np

from .spectral import GridSpec, SpectralField, TWO_PI

CONSTRAINT_TOL = 1e-12
SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class CoefficientSet:
    """Raw model coefficients, prior to validation."""

    a1: float
    a2: float
    a3: float
    k: float
    r: float = 0.0
    b1: float = 1.0
    b2: float = 1.0

    def to_dict(self) -> dict:
        return {key: float(val) for key, val in asdict(self).items()}


@dataclass(frozen=True)
class Violation:
    constraint: str
    message: str

    def __str__(self):
        return f"{self.constraint}: {self.message}"


class CoefficientError(ValueError):
    """Raised when a coefficient set falls outside the decay regime."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def check_coefficients(c: CoefficientSet) -> list[Violation]:
    """All constraint violations, empty when the set is admissible."""
    bad = []
    values = asdict(c)
    if not all(math.isfinite(v) for v in values.values()):
        # NaN fails no `abs(...) > tol` test below, so it is named here
        bad.append(Violation("finite", f"coefficients must be finite, "
                                       f"got {values}"))
    if abs(c.r) > CONSTRAINT_TOL:
        bad.append(Violation("r_zero", f"transport coefficient r must be 0, got {c.r}"))
    if abs(c.b1 - 1.0) > CONSTRAINT_TOL:
        bad.append(Violation("b1_unit", f"b1 must be 1, got {c.b1}"))
    if abs(c.b2 - 1.0) > CONSTRAINT_TOL:
        bad.append(Violation("b2_unit", f"b2 must be 1, got {c.b2}"))
    if not c.k > 0.0:
        bad.append(Violation("k_positive", f"damping k must be > 0, got {c.k}"))
    if abs(c.a3) >= 1.0 - CONSTRAINT_TOL:
        bad.append(Violation("a3_magnitude", f"|a3| must be < 1, got {c.a3}"))
    quad = c.a1 ** 2 + c.a2 ** 2 - (c.a1 + c.a2)
    if abs(quad) > CONSTRAINT_TOL:
        bad.append(Violation("a1_a2_quadratic",
                             f"a1^2 + a2^2 = a1 + a2 fails by {quad:.3e}"))
    if abs((c.a1 - 1.0) * c.a3) > CONSTRAINT_TOL:
        bad.append(Violation("a1_a3_coupling",
                             f"(a1 - 1) a3 must be 0, got {(c.a1 - 1.0) * c.a3:.3e}"))
    if abs((c.a2 - 1.0) * c.a3) > CONSTRAINT_TOL:
        bad.append(Violation("a2_a3_coupling",
                             f"(a2 - 1) a3 must be 0, got {(c.a2 - 1.0) * c.a3:.3e}"))
    return bad


@dataclass(frozen=True)
class ValidatedCoefficients:
    """Coefficient set that passed the gate, tagged with its branch."""

    a1: float
    a2: float
    a3: float
    k: float
    r: float
    b1: float
    b2: float
    branch: str  # "a3=0" or "a1=a2=1"


def validate_coefficients(c: CoefficientSet) -> ValidatedCoefficients:
    bad = check_coefficients(c)
    if bad:
        raise CoefficientError(bad)
    branch = "a3=0" if c.a3 == 0.0 else "a1=a2=1"
    return ValidatedCoefficients(a1=c.a1, a2=c.a2, a3=c.a3, k=c.k, r=c.r,
                                 b1=c.b1, b2=c.b2, branch=branch)


@dataclass(frozen=True)
class SimState:
    """Zero-mean fields plus the conserved means split off at t = 0."""

    u: SpectralField
    v: SpectralField
    t: float
    mean_u: float  # M
    mean_v: float  # N

    @property
    def grid(self) -> GridSpec:
        return self.u.grid


def reduce_mean(phi: SpectralField, psi: SpectralField,
                t: float = 0.0) -> SimState:
    """Split off the means: u = phi - [phi], v = psi - [psi]."""
    if phi.grid != psi.grid:
        raise ValueError("fields live on different grids")
    mean_u = float(phi.coeffs[0].real)
    mean_v = float(psi.coeffs[0].real)
    cu = phi.coeffs.copy()
    cv = psi.coeffs.copy()
    cu[0] = 0.0
    cv[0] = 0.0
    return SimState(u=SpectralField(phi.grid, cu), v=SpectralField(psi.grid, cv),
                    t=t, mean_u=mean_u, mean_v=mean_v)


def _require_validated(c) -> None:
    if not isinstance(c, ValidatedCoefficients):
        raise TypeError("coefficients must pass validate_coefficients")


@functools.lru_cache(maxsize=8)
def _dealiased_ddx(grid: GridSpec) -> np.ndarray:
    """-i omega, the symbol of -d/dx, on the modes the dealiasing keeps."""
    symbol = -1j * (TWO_PI * np.arange(grid.dealias_cutoff + 1))
    symbol.flags.writeable = False
    return symbol


def _rotate(x: np.ndarray) -> np.ndarray:
    """(x0 + x1, x0 - x1) / sqrt 2 over axis -2: (u, v) <-> (w+, w-).

    The eigenbasis transform is its own inverse, so this one map goes both
    ways.
    """
    out = np.empty_like(x)
    np.add(x[..., 0, :], x[..., 1, :], out=out[..., 0, :])
    np.subtract(x[..., 0, :], x[..., 1, :], out=out[..., 1, :])
    out /= SQRT2
    return out


# _rotate as a matrix, and (uu, vv, uv) in terms of (pp, mm, pm) when
# u = (p + m)/sqrt 2 and v = (p - m)/sqrt 2
_ROTATION = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
_PRODUCTS = np.array([[0.5, 0.5, 1.0], [0.5, 0.5, -1.0], [0.5, -0.5, 0.0]])


def eigen_mixing(state: SimState, c: ValidatedCoefficients) -> np.ndarray:
    """The real (2, 5) matrix [Q | L] that `nonlinear_remainder` applies.

    In (u, v), with means M, N, the nonlinear terms are -d/dx of the flux

        F_u = uu/2 + a1 vv/2 + a2 uv + (M + a2 N) u + (a1 N + a2 M) v
        F_v = vv/2 + a2 uu/2 + a1 uv + (a2 M + a1 N) u + (N + a1 M) v

    Rotated into the eigenbasis, with p = w+ and m = w- in physical space,
    the flux is Q (pp, mm, pm) + L (p, m).
    """
    a1, a2, m, n = c.a1, c.a2, state.mean_u, state.mean_v
    quadratic = np.array([[0.5, 0.5 * a1, a2], [0.5 * a2, 0.5, a1]])
    linear = np.array([[m + a2 * n, a1 * n + a2 * m],
                       [a2 * m + a1 * n, n + a1 * m]])
    return np.hstack((_ROTATION @ quadratic @ _PRODUCTS,
                      _ROTATION @ linear @ _ROTATION))


def nonlinear_remainder(w: np.ndarray, mix: np.ndarray,
                        grid: GridSpec) -> np.ndarray:
    """Flux of everything in the rhs except the stiff diagonal linear part.

    Works in the eigenbasis on the kept modes 0..dealias_cutoff (hot path of
    the time stepper), with any leading axes: `w` is (..., 2, kept) holding
    (w+_hat, w-_hat), `mix` (..., 2, 5) is the [Q | L] of `eigen_mixing`.
    Returns the flux F_hat, shaped like `w`; the nonlinear remainder itself
    is -i omega F_hat, zero above the cutoff. The stepper folds -i omega
    into its tables, and `rhs` applies it.

    One irfft of both fields fills rows 3-4 of a (..., 5, n) buffer with p
    and m, rows 0-2 get pp, mm and pm, and one real matmul by `mix` mixes
    the whole flux in physical space before one rfft of its two rows. Each
    leading index gets bitwise the numbers it would get alone. The
    mean-advection terms ride along in L so that the exponential tables
    depend only on (grid, a3, k, dt).
    """
    buf = np.empty(w.shape[:-2] + (5, grid.n_points))
    phys = buf[..., 3:, :]
    phys[...] = np.fft.irfft(w, n=grid.n_points, norm="forward")
    np.multiply(phys, phys, out=buf[..., :2, :])
    np.multiply(buf[..., 3, :], buf[..., 4, :], out=buf[..., 2, :])
    return np.fft.rfft(mix @ buf, norm="forward")[..., :w.shape[-1]]


def linear_rates(grid: GridSpec, c: ValidatedCoefficients) -> np.ndarray:
    """Eigenvalues of the linear symbol over the stored modes, shape (2, n_coeffs).

    Row 0 is the (u+v)/sqrt(2) branch with rate i(2 pi kappa)^3 (1 + a3) - k,
    row 1 the (u-v)/sqrt(2) branch with (1 - a3). Mode 0 is undamped.
    """
    _require_validated(c)
    omega3 = (TWO_PI * np.arange(grid.n_coeffs)) ** 3
    damp = np.full(grid.n_coeffs, c.k)
    damp[0] = 0.0
    return np.stack([1j * omega3 * (1.0 + c.a3) - damp,
                     1j * omega3 * (1.0 - c.a3) - damp])


def rhs(state: SimState, c: ValidatedCoefficients
        ) -> tuple[SpectralField, SpectralField]:
    """Time derivative (du, dv) of the reduced system."""
    _require_validated(c)
    if abs(state.u.coeffs[0]) > 1e-12 or abs(state.v.coeffs[0]) > 1e-12:
        raise ValueError("state is not in reduced (zero-mean) form")
    grid = state.grid
    kept = grid.dealias_cutoff + 1  # rhs of the truncated state: 0 above
    uv = np.stack([state.u.coeffs[:kept], state.v.coeffs[:kept]])
    flux = nonlinear_remainder(_rotate(uv), eigen_mixing(state, c), grid)
    disp = (1j * (TWO_PI * np.arange(kept))) ** 3
    damp = np.full(kept, c.k)
    damp[0] = 0.0
    out = np.zeros((2, grid.n_coeffs), dtype=np.complex128)
    out[:, :kept] = (_rotate(_dealiased_ddx(grid) * flux)
                     - disp * (uv + c.a3 * uv[::-1]) - damp * uv)
    return SpectralField(grid, out[0]), SpectralField(grid, out[1])
