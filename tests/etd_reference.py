"""Serial ETDRK4 march, one state at a time: oracle of the batched stepper.

This is the stepper as it was before the ensemble axis: per-state arrays,
full-length tables without the -i omega folded in, a nonlinear term with five
separate FFTs, and an eigenbasis round trip at every stage. `integrator.evolve`
must reproduce its numbers member by member, within the bound its test states.
"""
from typing import NamedTuple

import numpy as np

from ggkdv.integrator import BlowUpError, contour_phi_means
from ggkdv.model import SimState, linear_rates
from ggkdv.spectral import TWO_PI, SpectralField

from spectral_reference import truncate

SQRT2 = np.sqrt(2.0)


class ReferenceTables(NamedTuple):
    """ETDRK4 coefficients over all stored modes, each (2, n_coeffs)."""

    exp_full: np.ndarray  # e^{lambda dt}
    exp_half: np.ndarray  # e^{lambda dt / 2}
    q: np.ndarray         # stage weight, dt phi1(lambda dt / 2) / 2
    w1: np.ndarray        # final-combination weights
    w2: np.ndarray
    w3: np.ndarray


def reference_tables(grid, c, dt):
    z0 = linear_rates(grid, c) * dt
    q, w1, w2, w3 = contour_phi_means(z0)
    return ReferenceTables(np.exp(z0), np.exp(z0 / 2.0), dt * q, dt * w1,
                           dt * w2, dt * w3)


def nonlinear_remainder(u_hat, v_hat, mean_u, mean_v, c, grid):
    n = grid.n_points
    u_phys = np.fft.irfft(u_hat * n, n=n)
    v_phys = np.fft.irfft(v_hat * n, n=n)
    uu = np.fft.rfft(u_phys * u_phys) / n
    vv = np.fft.rfft(v_phys * v_phys) / n
    uv = np.fft.rfft(u_phys * v_phys) / n

    combo_u = (0.5 * uu + mean_u * u_hat
               + c.a1 * (0.5 * vv + mean_v * v_hat)
               + c.a2 * (uv + mean_v * u_hat + mean_u * v_hat))
    combo_v = (0.5 * vv + mean_v * v_hat
               + c.a2 * (0.5 * uu + mean_u * u_hat)
               + c.a1 * (uv + mean_v * u_hat + mean_u * v_hat))

    omega = TWO_PI * np.arange(grid.n_coeffs)
    nu = -1j * omega * combo_u
    nv = -1j * omega * combo_v
    nu[grid.dealias_cutoff + 1:] = 0.0
    nv[grid.dealias_cutoff + 1:] = 0.0
    return nu, nv


def to_eigen(u_hat, v_hat):
    return np.stack([u_hat + v_hat, u_hat - v_hat]) / SQRT2


def from_eigen(w):
    return (w[0] + w[1]) / SQRT2, (w[0] - w[1]) / SQRT2


def step_arrays(w, tables, c, mean_u, mean_v, grid):
    def nl(stage):
        u_hat, v_hat = from_eigen(stage)
        nu, nv = nonlinear_remainder(u_hat, v_hat, mean_u, mean_v, c, grid)
        return to_eigen(nu, nv)

    n0 = nl(w)
    a = tables.exp_half * w + tables.q * n0
    na = nl(a)
    b = tables.exp_half * w + tables.q * na
    nb = nl(b)
    cc = tables.exp_half * a + tables.q * (2.0 * nb - n0)
    nc = nl(cc)
    out = (tables.exp_full * w + tables.w1 * n0
           + 2.0 * tables.w2 * (na + nb) + tables.w3 * nc)
    out[:, 0] = 0.0
    return out


def reference_march(state, c, t_final, dt, observer=None, stride=1):
    """(times, observer rows, final state), or raises BlowUpError.

    `observer` maps a SimState to a dict, like the observer of one member.
    """
    n_steps = int(round((t_final - state.t) / dt))
    tables = reference_tables(state.grid, c, dt)
    grid = state.grid
    current = SimState(u=truncate(state.u), v=truncate(state.v), t=state.t,
                       mean_u=state.mean_u, mean_v=state.mean_v)
    times, rows = [current.t], [observer(current) if observer else {}]
    w = to_eigen(current.u.coeffs, current.v.coeffs)
    for i in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            w = step_arrays(w, tables, c, current.mean_u, current.mean_v, grid)
        t_now = state.t + i * dt
        if not np.all(np.isfinite(w)):
            raise BlowUpError(t_now)
        if i % stride == 0:
            u_hat, v_hat = from_eigen(w)
            current = SimState(u=SpectralField(grid, u_hat),
                               v=SpectralField(grid, v_hat), t=t_now,
                               mean_u=current.mean_u, mean_v=current.mean_v)
            times.append(t_now)
            rows.append(observer(current) if observer else {})
    return times, rows, current
