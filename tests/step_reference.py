"""The allocating flux and ETDRK4 step, the unbound in-place step and the
matmul route: oracles of the bound stepper.

`nonlinear_remainder` and `step` are the stepper's flux and step written
plainly: every call allocates its buffer, slices and views, and every stage
a new array for each intermediate result. `bound_remainder` is
`model.nonlinear_remainder`, a flux `model._bind_flux` binds for one call,
or, given the matrices of `flux_transforms`, the bound matmul flux.
`in_place_step` is the step as it was before `integrator._bind_step`: in
place through given stage arrays, but looking up every stage, table row and
ufunc, and binding the flux, on each call. `bind_two_branch_flux` is
`model._bind_flux` as it was before it learned to transform w+ alone: both
branches on every mix, by the FFT pair or by two small real matmuls. The
bound flux and the bound step must give bitwise their numbers; the matmul
route, which rounds differently, agrees with the FFT route within a stated
bound.
"""
import functools

import numpy as np

from ggkdv.model import nonlinear_remainder as model_remainder
from ggkdv.spectral import TWO_PI


def flux_transforms(grid):
    """The real matrices of the flux's matmul route on `grid`.

    `synth` (2 kept, n) maps the kept modes, as interleaved (re, im) pairs,
    to the n grid values, which is irfft with norm="forward"; `anal`
    (n, 2 kept) maps grid values back to those pairs, which is rfft with
    norm="forward". The angles 2 pi ((kappa j) mod n) / n are reduced before
    cos and sin, so each entry is as accurate as the sample it stands for.
    """
    n = grid.n_points
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


def bind_matmul_flux(grid, mix, *pairs):
    """`bind_two_branch_flux` by the matrices of `flux_transforms(grid)`,
    bound as `model._bind_flux` binds: per (w, out) of `pairs`, whole
    complex states of one shape (..., 2, kept), a callable of no arguments
    that writes the flux of `w` into `out`. The matmul route as the stepper
    bound it."""
    flux = bind_two_branch_flux(pairs[0][0].shape, grid, mix,
                                flux_transforms(grid))
    return tuple(functools.partial(flux, w.view(np.float64),
                                   out.view(np.float64)) for w, out in pairs)


def bound_remainder(w, mix, grid, out, transforms=None):
    """The flux of `w` written into `out` by `model.nonlinear_remainder`,
    or, given `transforms`, by `bind_two_branch_flux` on their matmul
    route, through the float views of `w` and `out`."""
    if transforms is None:
        return model_remainder(w, mix, grid, out)
    bind_two_branch_flux(w.shape, grid, mix, transforms)(
        w.view(np.float64), out.view(np.float64))
    return out


def nonlinear_remainder(w, mix, grid, transforms=None):
    """The flux F_hat of `w` (..., 2, kept) under `mix` (..., 2, 5), by the
    FFT pair, or by the (synth, anal) matrices of `flux_transforms`."""
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


def step(w, tables, mix, grid):
    """One ETDRK4 step of the (P, 2, kept) eigenbasis state, returned as a
    new array, under the six table rows of `integrator.build_tables`."""
    exp_full, exp_half, q, w1, w2x2, w3 = tables
    n0 = nonlinear_remainder(w, mix, grid)
    half = exp_half * w
    a = half + q * n0
    na = nonlinear_remainder(a, mix, grid)
    b = half + q * na
    nb = nonlinear_remainder(b, mix, grid)
    c = exp_half * a + q * (2.0 * nb - n0)
    nc = nonlinear_remainder(c, mix, grid)
    return exp_full * w + w1 * n0 + w2x2 * (na + nb) + w3 * nc


def in_place_step(w, tables, mix, grid, stages):
    """One ETDRK4 step of `w` in place through the nine arrays `stages`,
    each shaped like `w`, by `bound_remainder`."""
    exp_full, exp_half, q, w1, w2x2, w3 = tables
    n0, na, nb, nc, a, b, c, half, s = stages
    bound_remainder(w, mix, grid, n0)
    np.multiply(exp_half, w, out=half)
    np.add(half, np.multiply(q, n0, out=a), out=a)  # half + q n0
    bound_remainder(a, mix, grid, na)
    np.add(half, np.multiply(q, na, out=b), out=b)  # half + q na
    bound_remainder(b, mix, grid, nb)
    np.multiply(q, np.subtract(np.multiply(2.0, nb, out=s), n0, out=s), out=s)
    np.add(np.multiply(exp_half, a, out=c), s, out=c)  # + q (2 nb - n0)
    bound_remainder(c, mix, grid, nc)
    # ((exp_full w + w1 n0) + w2x2 (na + nb)) + w3 nc
    np.add(np.multiply(exp_full, w, out=w), np.multiply(w1, n0, out=s), out=w)
    np.add(w, np.multiply(w2x2, np.add(na, nb, out=s), out=s), out=w)
    np.add(w, np.multiply(w3, nc, out=s), out=w)


def bind_two_branch_flux(shape, grid, mix, transforms=None):
    """`model._bind_flux` transforming both branches whatever `mix` reads:
    a callable (w, out) on whole states of `shape` (..., 2, kept), and on
    the matmul route of `transforms` on their float views."""
    kept, n = shape[-1], grid.n_points
    rows = np.empty((5,) + shape[:-2] + (n,))
    buf = np.moveaxis(rows, 0, -2)
    flux = np.empty(shape[:-2] + (2, n))
    phys, pair, squares = buf[..., 3:, :], rows[3:], rows[:2]
    p, m, pm = rows[3], rows[4], rows[2]
    synth, anal = transforms or (None, None)
    multiply, matmul = np.multiply, np.matmul
    if synth is None:
        pocketfft = np.fft._pocketfft_umath
        irfft, rfft, scale = (pocketfft.irfft, pocketfft.rfft_n_even,
                              1.0 / n)
        modes = np.empty(shape[:-2] + (2, n // 2 + 1), dtype=np.complex128)
        head = modes[..., :kept]

    def remainder(w, out):
        if synth is None:
            irfft(w, 1.0, phys)
        else:
            matmul(w, synth, phys)
        multiply(pair, pair, squares)
        multiply(p, m, pm)
        matmul(mix, buf, flux)
        if synth is None:
            rfft(flux, scale, modes)
            out[...] = head
        else:
            matmul(flux, anal, out)
    return remainder
