"""Exponential time differencing (ETDRK4) for the damped coupled-KdV system.

The stiff part is diagonalized once: in the variables w+ = (u+v)/sqrt(2),
w- = (u-v)/sqrt(2) the linear symbol is diagonal with rates
i (2 pi kappa)^3 (1 +/- a3) - k. The four phi-type coefficients are
evaluated as contour means over a unit circle around each (complex) rate, which
sidesteps the cancellation in the small-|z| limit; with 32 points the trapezoid
rule on an entire function is exact to machine precision. The mean-advection
terms are folded into the nonlinear remainder, so tables depend only on
(grid, a3, k, dt).

The march never leaves the eigenbasis: `model._bind_flux`, the body of
`model.nonlinear_remainder`, mixes the products of w+ and w- in physical
space by the per-member matrix of `model.eigen_mixing`. Grids of up to
`model.MATMUL_MAX_POINTS` points move between modes and grid by the two real
matrices of `model.flux_transforms`, larger ones by pocketfft's irfft and
rfft gufuncs, bound once, on w+ alone where no member's mix reads w-
(a1 = a2 = 1, zero means: F- is exactly zero, and w- marches as the exact
exp_full w-). `evolve` builds the matrices once per march beside its
tables, and one step bound to them (`_bind_step`): a closure that does
every stage in place, in its own buffers, with every operand a local, so a
step makes no array; one np.errstate spans the march. State and tables hold
only the kept modes 0..dealias_cutoff, since the dealiased nonlinear term is
zero above the cutoff and so is the truncated initial state; the observer
gets the state rotated back to (u, v) and padded to the full rfft length.
The tables fold in the -i omega of the flux's derivative, and the 2 the
final combination puts on w2. At mode 0 the six rows are exactly
(1, 1, 0, 0, 0, 0), so a step keeps each zero mean exactly; `evolve` checks
the mean at each sampled state and raises if it ever drifts.

`evolve` marches an ensemble: P members that share grid, dt, span and stride,
each with its own coefficients and means. The state carries a member axis,
(P, 2, kept), and so do the tables, stacked to (6, P, 2, kept). Each stage
makes one batched synthesis and one batched analysis for the ensemble;
numpy's batched transforms and stacked matmuls give every member bitwise
what a lone call gives, and one branch or two give F+ the same bits, so
each member is bitwise its lone march. A member that turns non-finite
leaves the ensemble with its own BlowUpError; the others march on
unchanged. The observer gets each member's sampled states a block of
OBSERVE_BLOCK at a time, to evaluate as a stack.

`step_count` is the one rule by which dt and stride tile a span: `evolve`
applies it to every march, and `config.ExperimentConfig.resolved_dt` to the
step of every run.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .model import (CoefficientError, SimState, ValidatedCoefficients,
                    Violation, _bind_flux, _branches, _dealiased_ddx,
                    _rotate, eigen_mixing, flux_transforms, linear_rates)
from .spectral import GridSpec, SpectralField, truncate

N_CONTOUR = 32  # trapezoid points on each circle of `contour_phi_means`
# Sampled states of a member that the observer gets at once: a stack holds its
# states' fields and samples together, so peak RSS sets the size
OBSERVE_BLOCK = 2


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
    ddx = _dealiased_ddx(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        z0 = linear_rates(grid, c)[:, :grid.dealias_cutoff + 1] * dt
        q, w1, w2, w3 = contour_phi_means(z0)
        tables = np.stack([np.exp(z0), np.exp(z0 / 2.0), ddx * (dt * q),
                           ddx * (dt * w1), (2.0 * ddx) * (dt * w2),
                           ddx * (dt * w3)])
    if not np.isfinite(tables).all():  # k dt past about 1e152
        raise CoefficientError([Violation("finite_tables", (
            f"k = {c.k} with dt = {dt} overflows the ETDRK4 tables"))])
    return tables


def step_count(span: float, dt: float, stride: int) -> int:
    """Steps of dt that tile span in whole strides, fewer than 2**53 (past
    which round(span / dt) cannot tell counts apart); ValueError otherwise."""
    ratio = span / dt if dt > 0.0 else np.nan
    n_steps = int(round(ratio)) if 0.0 < ratio < 2.0 ** 53 else 0
    if (n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, span)
            or stride < 1 or n_steps % stride):
        raise ValueError(f"dt = {dt} and stride = {stride} do not tile the "
                         f"span {span} into whole strides")
    return n_steps


def _bind_step(w: np.ndarray, tables, mix: np.ndarray, grid: GridSpec,
               transforms):
    """One ETDRK4 step of the (P, 2, kept) state `w`, in place through nine
    stages of its own, as a callable of no arguments: bitwise a step by new
    arrays, by the same association. Every table row, stage, float view and
    ufunc is a local of the callable, and every `out` is positional."""
    exp_full, exp_half, q, w1, w2x2, w3 = tables
    stages = np.empty((9,) + w.shape, dtype=np.complex128)
    flux = _bind_flux(w.shape, grid, mix, transforms)
    branches = _branches(mix, transforms)
    stages[:4, ..., branches:, :] = 0.0  # the F- rows the flux skips
    n0, na, nb, nc, a, b, c, half, s = stages
    # the flux's operands: its branches' rows, or float views (matmul route)
    fw, fn0, fna, fnb, fnc, fa, fb, fc = (
        x[..., :branches, :] if transforms is None else x.view(np.float64)
        for x in (w, n0, na, nb, nc, a, b, c))
    add, multiply, subtract = np.add, np.multiply, np.subtract

    def step() -> None:
        flux(fw, fn0)
        multiply(exp_half, w, half)
        add(half, multiply(q, n0, a), a)  # half + q n0
        flux(fa, fna)
        add(half, multiply(q, na, b), b)  # half + q na
        flux(fb, fnb)
        multiply(q, subtract(multiply(2.0, nb, s), n0, s), s)
        add(multiply(exp_half, a, c), s, c)  # + q (2 nb - n0)
        flux(fc, fnc)
        # ((exp_full w + w1 n0) + w2x2 (na + nb)) + w3 nc
        add(multiply(exp_full, w, w), multiply(w1, n0, s), w)
        add(w, multiply(w2x2, add(na, nb, s), s), w)
        add(w, multiply(w3, nc, s), w)
    return step


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


def evolve(states, coeffs, t_final: float, dt: float, observer=None,
           stride: int = 1) -> EnsembleRun:
    """March an ensemble of states to t_final, sampling the observer every
    `stride` steps.

    Member i is states[i] under coeffs[i]; all members share grid, start
    time, dt, span and stride. The observer is called as observer(i, block)
    with a list of member i's sampled states, in time order, and returns
    one dict of named floats per state, that state's row (empty without an
    observer). It gets a member's states OBSERVE_BLOCK at a time as the
    march makes them and the rest after it, always under the caller's error
    state; the mean drift is checked at each state as it is made. A member
    whose state first turns non-finite leaves the ensemble with a
    BlowUpError naming that time, its unobserved states dropped; the others
    march on unchanged. Each member's final state is in its series'
    meta["final_state"]. Raises ValueError when dt and stride do not tile
    the span (`step_count`).
    """
    states, coeffs = list(states), list(coeffs)
    if not states or len(states) != len(coeffs):
        raise ValueError("need one coefficient set per state, and at least "
                         "one state")
    grid, t0 = states[0].grid, states[0].t
    if any(st.grid != grid or st.t != t0 for st in states):
        raise ValueError("ensemble members must share grid and start time")
    n_steps = step_count(t_final - t0, dt, stride)

    # unpacked once into its six rows, not on every step
    tables = tuple(np.stack([build_tables(grid, c, dt) for c in coeffs],
                            axis=1))
    transforms = flux_transforms(grid)
    n_members = len(states)
    times = [[] for _ in range(n_members)]
    rows = [[] for _ in range(n_members)]
    pending = [[] for _ in range(n_members)]  # sampled, not yet observed
    drift_max = [0.0] * n_members
    current = [SimState(u=truncate(st.u), v=truncate(st.v), t=t0,
                        mean_u=st.mean_u, mean_v=st.mean_v) for st in states]
    outcome = [None] * n_members
    member_steps = 0
    caller = np.geterr()

    def flush(i: int):
        block, pending[i] = pending[i], []
        if observer is None:
            rows[i] += [{} for _ in block]
        else:
            with np.errstate(**caller):  # not the march's
                rows[i] += observer(i, block)
        times[i] += [st.t for st in block]

    def sample(i: int, st: SimState):
        drift = max(abs(st.u.coeffs[0]), abs(st.v.coeffs[0]))
        drift_max[i] = max(drift_max[i], drift)
        if drift > 1e-14:
            raise RuntimeError(f"mean drifted to {drift:.3e} at t = {st.t}")
        pending[i].append(st)
        if len(pending[i]) == OBSERVE_BLOCK:
            flush(i)

    for i, st in enumerate(current):
        sample(i, st)
    live = np.arange(n_members)  # member index of each row of w
    kept = grid.dealias_cutoff + 1
    # overflow is diagnosed via the finiteness check, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mix = np.stack([eigen_mixing(st, c) for st, c in zip(states, coeffs)])
        w = _rotate(np.array([(st.u.coeffs[:kept], st.v.coeffs[:kept])
                              for st in current]))
        step = _bind_step(w, tables, mix, grid, transforms)
        # a finite sum proves every entry finite; only a non-finite one (an
        # overflow of finite entries included) needs the exact test
        total, flat = np.add.reduce, w.view(np.float64).reshape(-1)
        for n in range(1, n_steps + 1):
            step()
            member_steps += live.size
            t_now = t0 + n * dt
            if not math.isfinite(total(flat)):
                finite = np.isfinite(w).all(axis=(1, 2))
                for i in live[~finite].tolist():
                    outcome[i], pending[i] = BlowUpError(t_now), []
                live, w = live[finite], w[finite]
                if not live.size:
                    break
                tables = tuple(row[finite] for row in tables)
                mix = mix[finite]
                step = _bind_step(w, tables, mix, grid, transforms)
                flat = w.view(np.float64).reshape(-1)
            if n % stride == 0:
                uv = np.zeros((live.size, 2, grid.n_coeffs), np.complex128)
                uv[..., :kept] = _rotate(w)
                for row, i in enumerate(live.tolist()):
                    current[i] = replace(current[i], t=t_now,
                                         u=SpectralField(grid, uv[row, 0]),
                                         v=SpectralField(grid, uv[row, 1]))
                    sample(i, current[i])

    for i in live.tolist():
        if pending[i]:
            flush(i)
        keys = list(rows[i][0].keys())
        outcome[i] = DiagnosticSeries(
            t=np.array(times[i]),
            columns={key: np.array([row[key] for row in rows[i]])
                     for key in keys},
            meta={"final_state": current[i], "dt": dt, "stride": stride,
                  "n_steps": n_steps, "max_mean_drift": drift_max[i]})
    return EnsembleRun(members=outcome, meta={"n_steps": member_steps})
