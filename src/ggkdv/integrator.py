"""Exponential time differencing (ETDRK4) for the damped coupled-KdV system.

The stiff part is diagonalized once: in the variables w+ = (u+v)/sqrt(2),
w- = (u-v)/sqrt(2) the linear symbol is diagonal with rates
i (2 pi kappa)^3 (1 +/- a3) - k. The four phi-type coefficients are
evaluated as contour means over a unit circle around each (complex) rate, which
sidesteps the cancellation in the small-|z| limit; with 32 points the trapezoid
rule on an entire function is exact to machine precision. The mean-advection
terms are folded into the nonlinear remainder, so tables depend only on
(grid, a3, k, dt).

The march never leaves the eigenbasis. `model._bind_flux`, the body of
`model.nonlinear_remainder`, mixes the products of w+ and w- in physical
space by the per-member matrix of `model.eigen_mixing`; it picks the
branches it transforms (w+ alone where no member's mix reads w-) and zeroes
the F- rows it skips. `evolve` builds its tables once per march, and one
step bound to them (`_bind_step`): a closure that does every stage in place,
in its own buffers, through fluxes bound to each stage's rows, so a step
makes no array; one np.errstate spans the march. State and tables hold only
the kept modes 0..dealias_cutoff, since the dealiased nonlinear term is zero
above the cutoff. The tables fold in the -i omega of the flux's derivative,
and the 2 the final combination puts on w2. At mode 0 the six rows are
exactly (1, 1, 0, 0, 0, 0), so a step keeps each zero mean exactly; `evolve`
checks the means of each sampled stack and raises if one ever drifts.

`evolve` marches an ensemble: P members that share grid, dt, span and stride,
each with its own coefficients and means. The state carries a member axis,
(P, 2, kept), and so do the tables, stacked to (6, P, 2, kept). Numpy's
batched transforms and stacked matmuls give every member bitwise what a lone
call gives, and one branch or two give F+ the same bits, so each member is
bitwise its lone march. A member that turns non-finite leaves the ensemble
with its own BlowUpError; the others march on unchanged. The live members
are sampled at the same steps, as one (u, v) stack padded to the full rfft
length, at t = 0 the initial kept modes; a member's SimStates are made only
as the observer gets them, OBSERVE_BLOCK at a time.

`step_count` is the one rule by which dt and stride tile a span: `evolve`
applies it to every march, and `config.ExperimentConfig.resolved_dt` to the
step of every run.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .model import (CoefficientError, ValidatedCoefficients, Violation,
                    _bind_flux, _dealiased_ddx, _rotate, eigen_mixing,
                    linear_rates)
from .spectral import GridSpec, SpectralField

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


def _bind_step(w: np.ndarray, tables, mix: np.ndarray, grid: GridSpec):
    """One ETDRK4 step of the (P, 2, kept) state `w`, in place through nine
    stages of its own, as a callable of no arguments: bitwise a step by new
    arrays, by the same association. Every table row, stage, bound flux
    and ufunc is a local of the callable, and every `out` is positional."""
    exp_full, exp_half, q, w1, w2x2, w3 = tables
    stages = np.empty((9,) + w.shape, dtype=np.complex128)
    n0, na, nb, nc, a, b, c, half, s = stages
    flux_w, flux_a, flux_b, flux_c = _bind_flux(
        grid, mix, (w, n0), (a, na), (b, nb), (c, nc))
    add, multiply, subtract = np.add, np.multiply, np.subtract

    def step() -> None:
        flux_w()
        multiply(exp_half, w, half)
        add(half, multiply(q, n0, a), a)  # half + q n0
        flux_a()
        add(half, multiply(q, na, b), b)  # half + q na
        flux_b()
        multiply(q, subtract(multiply(2.0, nb, s), n0, s), s)
        add(multiply(exp_half, a, c), s, c)  # + q (2 nb - n0)
        flux_c()
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
    state; the means are checked at each sampled step. A member whose state
    first turns non-finite leaves the ensemble with a BlowUpError naming
    that time, its unobserved states dropped; the others march on
    unchanged. Each member's last sampled state is its series'
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
    n_members, kept = len(states), grid.dealias_cutoff + 1
    live = np.arange(n_members)  # member index of each row of w
    times, pending = [], []  # each sampled t; (t, uv) stacks not observed
    rows = [[] for _ in range(n_members)]
    drift_max = np.zeros(n_members)
    outcome = [None] * n_members
    member_steps = 0
    caller = np.geterr()

    def sample(t: float, uv: np.ndarray):
        """Hold the live members' (u, v) stack at t, if no mean drifted."""
        drift = np.abs(uv[..., 0]).max(axis=1)
        over = drift[drift > 1e-14]
        if over.size:
            raise RuntimeError(f"mean drifted to {over[0]:.3e} at t = {t}")
        drift_max[live] = np.maximum(drift_max[live], drift)
        times.append(t)
        pending.append((t, uv))

    def observe() -> list:
        """Hand each live member its pending states; the last of each."""
        last = []
        for row, i in enumerate(live.tolist()):
            block = [replace(states[i], t=t, u=SpectralField(grid, uv[row, 0]),
                             v=SpectralField(grid, uv[row, 1]))
                     for t, uv in pending]
            if observer is None:
                rows[i] += [{} for _ in block]
            else:
                with np.errstate(**caller):  # not the march's
                    rows[i] += observer(i, block)
            last.append(block[-1])
        pending.clear()
        return last

    uv = np.zeros((n_members, 2, grid.n_coeffs), np.complex128)
    uv[..., :kept] = [(st.u.coeffs[:kept], st.v.coeffs[:kept])
                      for st in states]
    sample(t0, uv)
    # overflow is diagnosed via the finiteness check, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mix = np.stack([eigen_mixing(st, c) for st, c in zip(states, coeffs)])
        w = _rotate(uv[..., :kept])
        step = _bind_step(w, tables, mix, grid)
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
                    outcome[i] = BlowUpError(t_now)
                live, w = live[finite], w[finite]
                if not live.size:
                    break
                pending[:] = [(t, uv[finite]) for t, uv in pending]
                tables = tuple(row[finite] for row in tables)
                mix = mix[finite]
                step = _bind_step(w, tables, mix, grid)
                flat = w.view(np.float64).reshape(-1)
            if n % stride == 0:
                uv = np.zeros((live.size, 2, grid.n_coeffs), np.complex128)
                uv[..., :kept] = _rotate(w)
                sample(t_now, uv)
                # the last block waits, to give each member its final state
                if len(pending) == OBSERVE_BLOCK and n < n_steps:
                    observe()

    for i, final in zip(live.tolist(), observe()):
        outcome[i] = DiagnosticSeries(
            t=np.array(times), columns={
                key: np.array([row[key] for row in rows[i]])
                for key in rows[i][0]},
            meta={"final_state": final, "dt": dt, "stride": stride,
                  "n_steps": n_steps, "max_mean_drift": float(drift_max[i])})
    return EnsembleRun(members=outcome, meta={"n_steps": member_steps})
