"""The allocating flux and ETDRK4 step, and the unbound in-place step:
oracles of the bound stepper.

`nonlinear_remainder` and `step` are the stepper's flux and step written
plainly: every call allocates its buffer, slices and views, and every stage
a new array for each intermediate result. `bound_remainder` binds
`model._bind_flux` for one call, on either route: on the FFT route it is
`model.nonlinear_remainder`. `in_place_step` is the step as it was before
`integrator._bind_step`: in place through given stage arrays, but looking
up every stage, table row and ufunc, and binding the flux, on each call.
`bind_two_branch_flux` is `model._bind_flux` as it was before it learned
to transform w+ alone: both branches on every mix. The bound flux and the
bound step must give bitwise their numbers.
"""
import numpy as np

from ggkdv.model import _bind_flux, nonlinear_remainder as model_remainder


def bound_remainder(w, mix, grid, out, transforms=None):
    """The flux of `w` written into `out` by a flux `model._bind_flux`
    binds for this call; on the matmul route of `transforms`, through the
    float views of `w` and `out`."""
    if transforms is None:
        return model_remainder(w, mix, grid, out)
    _bind_flux(w.shape, grid, mix, transforms)(w.view(np.float64),
                                               out.view(np.float64))
    return out


def nonlinear_remainder(w, mix, grid, transforms=None):
    """The flux F_hat of `w` (..., 2, kept) under `mix` (..., 2, 5), by the
    FFT pair, or by the (synth, anal) matrices of `model.flux_transforms`."""
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


def step(w, tables, mix, grid, transforms):
    """One ETDRK4 step of the (P, 2, kept) eigenbasis state, returned as a
    new array, under the six table rows of `integrator.build_tables`."""
    exp_full, exp_half, q, w1, w2x2, w3 = tables
    n0 = nonlinear_remainder(w, mix, grid, transforms)
    half = exp_half * w
    a = half + q * n0
    na = nonlinear_remainder(a, mix, grid, transforms)
    b = half + q * na
    nb = nonlinear_remainder(b, mix, grid, transforms)
    c = exp_half * a + q * (2.0 * nb - n0)
    nc = nonlinear_remainder(c, mix, grid, transforms)
    return exp_full * w + w1 * n0 + w2x2 * (na + nb) + w3 * nc


def in_place_step(w, tables, mix, grid, transforms, stages):
    """One ETDRK4 step of `w` in place through the nine arrays `stages`,
    each shaped like `w`, by `bound_remainder`."""
    exp_full, exp_half, q, w1, w2x2, w3 = tables
    n0, na, nb, nc, a, b, c, half, s = stages
    bound_remainder(w, mix, grid, n0, transforms)
    np.multiply(exp_half, w, out=half)
    np.add(half, np.multiply(q, n0, out=a), out=a)  # half + q n0
    bound_remainder(a, mix, grid, na, transforms)
    np.add(half, np.multiply(q, na, out=b), out=b)  # half + q na
    bound_remainder(b, mix, grid, nb, transforms)
    np.multiply(q, np.subtract(np.multiply(2.0, nb, out=s), n0, out=s), out=s)
    np.add(np.multiply(exp_half, a, out=c), s, out=c)  # + q (2 nb - n0)
    bound_remainder(c, mix, grid, nc, transforms)
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
