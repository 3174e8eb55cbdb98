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
`_rotate` is that transform, both ways. The nonlinear terms are -d/dx of a flux
quadratic in (u, v): in the eigenbasis, the one real matrix [Q | L] of
`eigen_mixing` applied in physical space to the products of w+ and w- and,
for mean advection, to w+-. On a1 = a2 = 1 with zero means it reads w+
alone: F_u = F_v = (u + v)^2 / 2, so F- = 0 and w- is linear.
`_bind_flux` is its one body, bound to `mix`, its own buffers and the rows
it reads and writes, once per march by the stepper and per call by
`nonlinear_remainder` (so `rhs`). It picks the branches `mix` reads, zeroes
the F- rows it skips, and calls pocketfft's irfft and rfft gufuncs without
numpy's wrapper. `rhs` gives a stack of states their time derivatives at
once, each bitwise its own.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .spectral import GridSpec, SpectralField, TWO_PI, derivative_symbols

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
        return {k: float(v) for k, v in vars(self).items()}


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
    bad = []
    if not all(math.isfinite(v) for v in vars(c).values()):
        # NaN fails no `abs(...) > tol` test below, so it is named here
        bad.append(Violation("finite", f"coefficients must be finite, "
                                       f"got {vars(c)}"))
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
    # `*`, not `**`: a float square overflows to inf where `**` raises, and
    # a1 = a2 = 1e308 then makes quad inf - inf = NaN, which `not <=` fails
    quad = c.a1 * c.a1 + c.a2 * c.a2 - (c.a1 + c.a2)
    if not abs(quad) <= CONSTRAINT_TOL:
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
class ValidatedCoefficients(CoefficientSet):
    """A CoefficientSet that passed the gate. Tests build sets outside the
    gate as `ValidatedCoefficients(**CoefficientSet(...).to_dict())`; such
    a set reports branch "a1=a2=1" whenever a3 != 0."""

    @property
    def branch(self) -> str:
        return "a3=0" if self.a3 == 0.0 else "a1=a2=1"


def validate_coefficients(c: CoefficientSet) -> ValidatedCoefficients:
    bad = check_coefficients(c)
    if bad:
        raise CoefficientError(bad)
    return ValidatedCoefficients(**vars(c))


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
    if kmax > grid.dealias_cutoff:
        raise ValueError(f"kmax = {kmax} > {grid.dealias_cutoff}, the "
                         f"dealiasing cutoff")
    c = np.zeros(grid.n_coeffs, dtype=np.complex128)
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
    kept = grid.dealias_cutoff + 1
    symbol = np.conj(derivative_symbols(grid.n_coeffs, (1,))[0, :kept])
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


def _branches(mix: np.ndarray) -> int:
    """Eigenbranches the flux transforms, w+ first: 1 where every member's
    `mix` is exactly zero in its F- row and its mm, pm and m columns, else
    2."""
    return 1 if (not mix[..., 1, :].any()
                 and not mix[..., 0, [1, 2, 4]].any()) else 2


def _bind_flux(grid: GridSpec, mix: np.ndarray, *pairs):
    """The body of `nonlinear_remainder`, bound to `mix`, to new buffers and
    to each (w, out) of `pairs`, arrays of one shape (..., 2, kept): per
    pair a callable of no arguments that writes the flux of `w` into `out`,
    whose F- rows it zeroes here if it transforms w+ alone.

    p and m fill rows 3-4 of a (5, ..., n) buffer, pp, mm and pm rows 0-2,
    whole rows that numpy's overlap check tells apart, and one real matmul
    by `mix`, reading it as (..., 5, n), mixes the flux. With one branch
    only p and pp are formed, the exact zeros of `mix` meet zero rows, and
    only F+ is transformed: bitwise as with two. Every buffer and numpy
    function is a local of the callables. They call the pocketfft gufuncs
    irfft and rfft_n_even (`make_grid` makes every n even) as
    `np.fft.irfft` and `rfft` do with norm="forward", factors 1 and 1/n,
    but into their own buffers and without numpy's wrapper, so bitwise.
    """
    shape = pairs[0][0].shape
    kept, n = shape[-1], grid.n_points
    branches = _branches(mix)
    rows = np.empty((5,) + shape[:-2] + (n,))
    rows[[1, 2, 4]] = 0.0  # mm, pm and m, which one branch never writes
    buf = np.moveaxis(rows, 0, -2)
    flux = np.empty(shape[:-2] + (2, n))
    phys = buf[..., 3:3 + branches, :]
    pair, squares = rows[3:3 + branches], rows[:branches]
    p, m, pm, cross = rows[3], rows[4], rows[2], branches == 2
    multiply, matmul = np.multiply, np.matmul
    pocketfft = np.fft._pocketfft_umath  # what np.fft calls on NumPy 2
    irfft, rfft, scale = pocketfft.irfft, pocketfft.rfft_n_even, 1.0 / n
    spectra = flux[..., :branches, :]
    modes = np.empty(spectra.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    head = modes[..., :kept]

    def bind(w: np.ndarray, out: np.ndarray):
        out[..., branches:, :] = 0.0
        w, out = w[..., :branches, :], out[..., :branches, :]

        def remainder() -> None:
            irfft(w, 1.0, phys)
            multiply(pair, pair, squares)
            if cross:
                multiply(p, m, pm)
            matmul(mix, buf, flux)
            rfft(spectra, scale, modes)
            out[...] = head
        return remainder
    return tuple(bind(w, out) for w, out in pairs)


def nonlinear_remainder(w: np.ndarray, mix: np.ndarray, grid: GridSpec,
                        out: np.ndarray) -> np.ndarray:
    """Flux of everything in the rhs except the stiff diagonal linear part.

    Works in the eigenbasis on the kept modes 0..dealias_cutoff, with any
    leading axes: `w` is (..., 2, kept) holding (w+_hat, w-_hat), `mix`
    (..., 2, 5) the [Q | L] of `eigen_mixing`. Writes the flux F_hat into
    `out`, shaped like `w`, and returns it; the remainder itself is
    -i omega F_hat, which the stepper folds into its tables and `rhs`
    applies.

    The flux is `_bind_flux`'s one body, bound for this one call; each
    leading index gets bitwise what it would get alone. L carries the mean
    advection, so the tables depend only on (grid, a3, k, dt).
    """
    _bind_flux(grid, mix, (w, out))[0]()
    return out


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


def rhs(states, c: ValidatedCoefficients) -> np.ndarray:
    """Time derivatives of a stack of reduced states on one grid, as an
    (S, 2, n_coeffs) array of (du, dv) coefficients; each state's row is
    bitwise what it would get alone."""
    _require_validated(c)
    if any(abs(st.u.coeffs[0]) > 1e-12 or abs(st.v.coeffs[0]) > 1e-12
           for st in states):
        raise ValueError("state is not in reduced (zero-mean) form")
    grid = states[0].grid
    kept = grid.dealias_cutoff + 1  # rhs of the truncated state: 0 above
    uv = np.array([(st.u.coeffs[:kept], st.v.coeffs[:kept])
                   for st in states])
    w = _rotate(uv)
    mix = np.array([eigen_mixing(st, c) for st in states])
    flux = nonlinear_remainder(w, mix, grid, np.empty_like(w))
    disp = derivative_symbols(grid.n_coeffs, (3,))[0, :kept]
    damp = np.full(kept, c.k)
    damp[0] = 0.0
    out = np.zeros((len(uv), 2, grid.n_coeffs), dtype=np.complex128)
    out[..., :kept] = (_rotate(_dealiased_ddx(grid) * flux)
                       - disp * (uv + c.a3 * uv[:, ::-1]) - damp * uv)
    return out
