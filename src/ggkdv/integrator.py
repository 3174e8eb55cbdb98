"""Exponential time differencing (ETDRK4) for the damped coupled-KdV system.

The stiff part is diagonalized once: in the variables w+ = (u+v)/sqrt(2),
w- = (u-v)/sqrt(2) the linear symbol is diagonal with rates
i (2 pi kappa)^3 (1 +/- a3) - k. The four phi-type coefficients are
evaluated as contour means over a unit circle around each (complex) rate, which
sidesteps the cancellation in the small-|z| limit; with 32 points the trapezoid
rule on an entire function is exact to machine precision. The mean-advection
terms are folded into the nonlinear remainder, so tables depend only on
(grid, a3, k, dt).

The march never leaves the eigenbasis: `model.nonlinear_remainder` forms the
flux from the products of w+ and w- and mixes it in physical space with the
per-member matrix of `model.eigen_mixing`. On grids of up to
`model.MATMUL_MAX_POINTS` points it moves between modes and grid by the two
real matrices of `model.flux_transforms`, which `evolve` builds once per
march beside its tables and drops when the march ends; larger grids use a
pocketfft irfft/rfft pair, and so do ensembles past `model.MATMUL_MAX_LOAD`,
since the matmuls' cost grows as members times n^2. State and tables hold
only the kept modes 0..dealias_cutoff, since the dealiased nonlinear term
is zero above the cutoff and so is the truncated initial state; observers
get the state rotated back to (u, v) and padded to the full rfft length.
The tables fold in the -i omega of the flux's derivative, and the 2 the
final combination puts on w2.

`evolve` marches an ensemble: P members that share grid, dt, span and stride,
each with its own coefficients and means. The state carries a member axis,
(P, 2, kept), and so do the tables, stacked to (6, P, 2, kept). Each stage
makes one batched synthesis (irfft or matmul) and one batched analysis (rfft
or matmul) for the whole march; numpy's batched real transforms, and its
stacked matmuls, one matrix product per member, give every member bitwise
what a lone call gives, so each member's numbers are bitwise those of its
lone march on the same route. On grids of up to MATMUL_MAX_POINTS points an
ensemble past MATMUL_MAX_LOAD takes the FFT pair where its members alone
would take the matmuls, so there they match their lone marches to
round-off. A member that turns non-finite leaves the ensemble with its own
BlowUpError; the others march on unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (SimState, ValidatedCoefficients, _dealiased_ddx, _rotate,
                    eigen_mixing, flux_transforms, linear_rates,
                    nonlinear_remainder)
from .spectral import GridSpec, SpectralField, truncate

N_CONTOUR = 32  # trapezoid points on each circle of `contour_phi_means`


class BlowUpError(RuntimeError):
    """Raised when the state first becomes non-finite."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"solution blew up: non-finite state at t = {time:.6g}")


def contour_phi_means(z0: np.ndarray) -> tuple:
    """ETDRK4 coefficient kernels averaged over unit circles around z0.

    Returns (q, w1, w2, w3) where, with z = z0 + circle,
      q  = mean (e^{z/2} - 1) / z
      w1 = mean (-4 - z + e^z (4 - 3z + z^2)) / z^3
      w2 = mean (2 + z + e^z (z - 2)) / z^3
      w3 = mean (-4 - 3z - z^2 + e^z (4 - z)) / z^3
    The full circle is required: the rates are genuinely complex, so there is
    no conjugate symmetry to exploit.
    """
    theta = 2.0 * np.pi * (np.arange(N_CONTOUR) + 0.5) / N_CONTOUR
    circle = np.exp(1j * theta)
    z = np.asarray(z0, dtype=np.complex128)[..., None] + circle
    ez = np.exp(z)
    q = np.mean((np.exp(z / 2.0) - 1.0) / z, axis=-1)
    w1 = np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z ** 3, axis=-1)
    w2 = np.mean((2.0 + z + ez * (z - 2.0)) / z ** 3, axis=-1)
    w3 = np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z ** 3, axis=-1)
    return q, w1, w2, w3


def build_tables(grid: GridSpec, c: ValidatedCoefficients,
                 dt: float) -> np.ndarray:
    """The (6, 2, kept) tables one ETDRK4 step multiplies with, z0 = lambda dt.

    Rows: e^{z0}, e^{z0 / 2}, then the weights q, w1, 2 w2 and w3 of
    `contour_phi_means`, each times dt and the -i omega of the flux.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    z0 = linear_rates(grid, c)[:, :grid.dealias_cutoff + 1] * dt
    ddx = _dealiased_ddx(grid)
    q, w1, w2, w3 = contour_phi_means(z0)
    return np.stack([np.exp(z0), np.exp(z0 / 2.0), ddx * (dt * q),
                     ddx * (dt * w1), (2.0 * ddx) * (dt * w2),
                     ddx * (dt * w3)])


def default_dt(grid: GridSpec, c: ValidatedCoefficients) -> float:
    """Advective-scale default step; the stiff part is handled exactly."""
    return 0.4 / ((1.0 + abs(c.a3)) * 2.0 * np.pi * grid.n_modes)


def _step(w: np.ndarray, tables, mix: np.ndarray, grid: GridSpec,
          transforms) -> np.ndarray:
    """One ETDRK4 step of the (P, 2, kept) eigenbasis state, under the six
    (P, 2, kept) table rows, the (P, 2, 5) mixing matrices and the
    `flux_transforms` of the grid (None for the FFT route)."""
    exp_full, exp_half, q, w1, w2x2, w3 = tables
    n0 = nonlinear_remainder(w, mix, grid, transforms)
    half = exp_half * w
    a = half + q * n0
    na = nonlinear_remainder(a, mix, grid, transforms)
    b = half + q * na
    nb = nonlinear_remainder(b, mix, grid, transforms)
    c = exp_half * a + q * (2.0 * nb - n0)
    nc = nonlinear_remainder(c, mix, grid, transforms)
    out = exp_full * w + w1 * n0 + w2x2 * (na + nb) + w3 * nc
    out[..., 0] = 0.0  # means are conserved exactly; pin against drift
    return out


@dataclass
class DiagnosticSeries:
    """Observer outputs sampled along a run, as named columns over times t."""

    t: np.ndarray
    columns: dict
    meta: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]


@dataclass
class EnsembleRun:
    """What `evolve` returns: per member, in input order, its DiagnosticSeries
    or the BlowUpError that ended it; meta["n_steps"] counts member-steps."""

    members: list
    meta: dict

    def __getitem__(self, index: int) -> DiagnosticSeries:
        """Member `index`'s series; raises its BlowUpError if it blew up."""
        member = self.members[index]
        if isinstance(member, BlowUpError):
            raise member
        return member


def evolve(states, coeffs, t_final: float, dt: float, observers=(),
           stride: int = 1) -> EnsembleRun:
    """March an ensemble of states to t_final, sampling observers every
    `stride` steps.

    Member i is states[i] under coeffs[i]; all members share grid, start
    time, dt, span and stride. Each observer is called as obs(i, state) and
    returns a dict of named floats; a member's rows merge them in observer
    order. A member whose state first turns non-finite leaves the ensemble
    with a BlowUpError naming that time; the others march on unchanged.
    Each member's final state is in its series' meta["final_state"].
    """
    states, coeffs = list(states), list(coeffs)
    if not states or len(states) != len(coeffs):
        raise ValueError("need one coefficient set per state, and at least "
                         "one state")
    grid, t0 = states[0].grid, states[0].t
    if any(st.grid != grid or st.t != t0 for st in states):
        raise ValueError("ensemble members must share grid and start time")
    span = t_final - t0
    if span <= 0.0:
        raise ValueError("t_final must exceed the state's current time")
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"dt = {dt} does not divide the span {span}")
    if stride < 1 or n_steps % stride != 0:
        raise ValueError(f"stride {stride} does not divide {n_steps} steps")

    # unpacked once into its six rows, not on every step
    tables = tuple(np.stack([build_tables(grid, c, dt) for c in coeffs],
                            axis=1))
    mix = np.stack([eigen_mixing(st, c) for st, c in zip(states, coeffs)])
    transforms = flux_transforms(grid, len(states))
    n_members = len(states)
    times = [[] for _ in range(n_members)]
    rows = [[] for _ in range(n_members)]
    drift_max = [0.0] * n_members
    current = [SimState(u=truncate(st.u), v=truncate(st.v), t=t0,
                        mean_u=st.mean_u, mean_v=st.mean_v) for st in states]
    outcome = [None] * n_members
    member_steps = 0

    def observe(i: int, st: SimState):
        drift = max(abs(st.u.coeffs[0]), abs(st.v.coeffs[0]))
        drift_max[i] = max(drift_max[i], drift)
        if drift > 1e-14:
            raise RuntimeError(f"mean drifted to {drift:.3e} at t = {st.t}")
        row = {}
        for obs in observers:
            row.update(obs(i, st))
        times[i].append(st.t)
        rows[i].append(row)

    for i, st in enumerate(current):
        observe(i, st)
    live = np.arange(n_members)  # member index of each row of w
    kept = grid.dealias_cutoff + 1
    w = _rotate(np.stack([np.stack([st.u.coeffs[:kept], st.v.coeffs[:kept]])
                          for st in current]))
    for step in range(1, n_steps + 1):
        # overflow is diagnosed via the finiteness check, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            w = _step(w, tables, mix, grid, transforms)
            # a finite sum proves every entry finite; only a non-finite one
            # (an overflow of finite entries included) needs the exact test
            suspect = not np.isfinite(w.sum())
        member_steps += live.size
        t_now = t0 + step * dt
        if suspect:
            finite = np.isfinite(w).all(axis=(1, 2))
            for i in live[~finite].tolist():
                outcome[i] = BlowUpError(t_now)
            live, w = live[finite], w[finite]
            if not live.size:
                break
            tables, mix = tuple(row[finite] for row in tables), mix[finite]
        if step % stride == 0:
            uv = np.zeros((live.size, 2, grid.n_coeffs), dtype=np.complex128)
            uv[..., :kept] = _rotate(w)
            for row, i in enumerate(live.tolist()):
                current[i] = SimState(u=SpectralField(grid, uv[row, 0]),
                                      v=SpectralField(grid, uv[row, 1]),
                                      t=t_now, mean_u=current[i].mean_u,
                                      mean_v=current[i].mean_v)
                observe(i, current[i])

    for i in live.tolist():
        keys = list(rows[i][0].keys())
        outcome[i] = DiagnosticSeries(
            t=np.array(times[i]),
            columns={key: np.array([row[key] for row in rows[i]])
                     for key in keys},
            meta={"final_state": current[i], "dt": dt, "stride": stride,
                  "n_steps": n_steps, "max_mean_drift": drift_max[i]})
    return EnsembleRun(members=outcome, meta={"n_steps": member_steps})
