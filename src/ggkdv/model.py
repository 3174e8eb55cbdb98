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
stepper and for `rhs` alike. It moves between modes and grid by one of two
routes: a pocketfft irfft/rfft pair, or, given the matrices of
`flux_transforms`, two small real matmuls. The stepper takes the matmul
route on grids of up to MATMUL_MAX_POINTS points, where numpy's fixed cost
per FFT call dominates, for ensembles whose members times n^2 stays within
MATMUL_MAX_LOAD; `rhs` always takes the FFT route.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
import functools
import math

import numpy as np

from .spectral import GridSpec, SpectralField, TWO_PI

CONSTRAINT_TOL = 1e-12
SQRT2 = np.sqrt(2.0)
# Largest grid the stepper transforms by matmul: at 256 points the two
# matmuls are no faster than the FFT pair, and at 512 about 5x slower.
MATMUL_MAX_POINTS = 128
# Largest members * n^2 the stepper transforms by matmul. Per member the
# matmuls cost about n^2 where the FFT pair costs n log n on top of a fixed
# per-call overhead, so larger ensembles take the FFT pair: a 200-step march
# at 128 points broke even between 10 and 16 members, while at 64 and 32
# points the matmuls were still ahead at 48 and 128 members.
MATMUL_MAX_LOAD = 8 * MATMUL_MAX_POINTS ** 2


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


def reduce_mean(phi: SpectralField, psi: SpectralField) -> SimState:
    """Split off the means at t = 0: u = phi - [phi], v = psi - [psi]."""
    if phi.grid != psi.grid:
        raise ValueError("fields live on different grids")
    mean_u = float(phi.coeffs[0].real)
    mean_v = float(psi.coeffs[0].real)
    cu = phi.coeffs.copy()
    cv = psi.coeffs.copy()
    cu[0] = 0.0
    cv[0] = 0.0
    return SimState(u=SpectralField(phi.grid, cu), v=SpectralField(psi.grid, cv),
                    t=0.0, mean_u=mean_u, mean_v=mean_v)


def random_smooth_field(grid, rng, kmax: int = 8) -> SpectralField:
    """Zero-mean field with e^{-kappa} spectrum up to kmax, random phases."""
    c = np.zeros(grid.n_coeffs, dtype=np.complex128)
    kmax = min(kmax, grid.dealias_cutoff)
    kappa = np.arange(1, kmax + 1)
    c[1:kmax + 1] = (np.exp(-kappa.astype(float))
                     * (rng.standard_normal(kmax)
                        + 1j * rng.standard_normal(kmax)))
    return SpectralField(grid, c)


def random_smooth_state(grid, seed: int, amplitude: float = 1.0,
                        kmax: int = 8) -> SimState:
    """Seeded zero-mean state pair, jointly normalized to sup amplitude."""
    rng = np.random.default_rng(seed)
    u = random_smooth_field(grid, rng, kmax)
    v = random_smooth_field(grid, rng, kmax)
    peak = max(np.max(np.abs(u.samples())), np.max(np.abs(v.samples())))
    scale = amplitude / peak
    return SimState(u=scale * u, v=scale * v, t=0.0, mean_u=0.0, mean_v=0.0)


def scale_state(state: SimState, factor: float) -> SimState:
    return SimState(u=factor * state.u, v=factor * state.v, t=state.t,
                    mean_u=factor * state.mean_u, mean_v=factor * state.mean_v)


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


def flux_transforms(grid: GridSpec, n_members: int = 1):
    """The real matrices of `nonlinear_remainder`'s matmul route for an
    ensemble of `n_members` on `grid`, or None above MATMUL_MAX_POINTS
    points or when n_members * n^2 exceeds MATMUL_MAX_LOAD.

    `synth` (2 kept, n) maps the kept modes, as interleaved (re, im) pairs,
    to the n grid values, which is irfft with norm="forward"; `anal`
    (n, 2 kept) maps grid values back to those pairs, which is rfft with
    norm="forward". The angles 2 pi ((kappa j) mod n) / n are reduced before
    cos and sin, so each entry is as accurate as the sample it stands for.
    """
    n = grid.n_points
    if n > MATMUL_MAX_POINTS or n_members * n * n > MATMUL_MAX_LOAD:
        return None
    kept = grid.dealias_cutoff + 1
    theta = (TWO_PI / n) * (np.outer(np.arange(kept), np.arange(n)) % n)
    cos, sin = np.cos(theta), np.sin(theta)
    synth = np.empty((kept, 2, n))
    synth[:, 0] = 2.0 * cos  # a mode and its conjugate
    synth[:, 1] = -2.0 * sin
    synth[0, 0], synth[0, 1] = 1.0, 0.0  # the mean: no conjugate, no im
    anal = np.empty((n, kept, 2))
    anal[..., 0] = cos.T / n
    anal[..., 1] = -sin.T / n
    return synth.reshape(2 * kept, n), anal.reshape(n, 2 * kept)


def nonlinear_remainder(w: np.ndarray, mix: np.ndarray, grid: GridSpec,
                        transforms=None) -> np.ndarray:
    """Flux of everything in the rhs except the stiff diagonal linear part.

    Works in the eigenbasis on the kept modes 0..dealias_cutoff (hot path of
    the time stepper), with any leading axes: `w` is (..., 2, kept) holding
    (w+_hat, w-_hat), `mix` (..., 2, 5) is the [Q | L] of `eigen_mixing`.
    Returns the flux F_hat, shaped like `w`; the nonlinear remainder itself
    is -i omega F_hat, zero above the cutoff. The stepper folds -i omega
    into its tables, and `rhs` applies it.

    Rows 3-4 of a (..., 5, n) buffer get p and m, rows 0-2 get pp, mm and
    pm, and one real matmul by `mix` mixes the whole flux in physical space.
    With `transforms` None, one batched irfft fills p and m and one batched
    rfft takes the flux's two rows back. With the (synth, anal) pair of
    `flux_transforms`, which needs `w` contiguous along its last axis, p and
    m are `w` viewed as reals times synth, and the flux is the mixed rows
    times anal viewed as complex: two matmuls in place of two FFT calls,
    which agree with them to round-off of order eps n max|flux|. On either
    route each leading index gets bitwise the numbers it would get alone.
    The mean-advection terms ride along in L so that the exponential tables
    depend only on (grid, a3, k, dt).
    """
    buf = np.empty(w.shape[:-2] + (5, grid.n_points))
    phys = buf[..., 3:, :]
    if transforms is None:
        phys[...] = np.fft.irfft(w, n=grid.n_points, norm="forward")
    else:
        np.matmul(w.view(np.float64), transforms[0], out=phys)
    np.multiply(phys, phys, out=buf[..., :2, :])
    np.multiply(buf[..., 3, :], buf[..., 4, :], out=buf[..., 2, :])
    if transforms is None:
        return np.fft.rfft(mix @ buf, norm="forward")[..., :w.shape[-1]]
    return ((mix @ buf) @ transforms[1]).view(np.complex128)


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
